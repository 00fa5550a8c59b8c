"""Ordinary character tables and the same-degree distinguishing bound.

Tables are computed by the class-algebra eigenvector method with Dixon and
Schneider's eigenspace refinement.  The integer structure constants of the
class sums are held as one cell index per (element, class) pair, and a
seeded integer combination of the class matrices is summed in one exact
``bincount``.  The combination sum c_i C_i has c_{i*} = conj(c_i), where i*
is the class of inverses.  With D = diag(class sizes), its matrix M then
satisfies D^(-1/2) M D^(1/2) = S + iA, with S real symmetric (from the
real parts) and A real antisymmetric (from the imaginary parts).
- One ``eigh`` of S separates every character except complex-conjugate
  pairs, whose eigenvalues of S are equal, and accidental coincidences.
- Each cluster of eigenvalues within EIG_SEPARATION_TOL is refined: iA,
  then fresh seeded S + iA combinations, restricted to the cluster's
  eigenspace.  The class algebra is commutative, so every combination maps
  that eigenspace to itself.  The small blocks are solved in one stacked
  ``eigh`` per cluster size.  A cluster still unsplit after the last round
  raises NumericalDegeneracy.
- The eigenvectors of M are v = D^(1/2) u, and they are normalized through
  the orthogonality relations.

The table is one (r, r) complex128 array, a character per row, from the
eigenvectors to the report bytes.  Each step is one whole-matrix
expression:
- divide each row by its identity-class entry;
- take the norms, the degrees and the sum of squared degrees;
- snap the real and imaginary parts;
- check the values, their bound and integrality;
- order the rows by degree, then by descending values class by class.  The
  real and imaginary parts of each class are ranked with values within
  VALUE_EQ_TOL tied, so float noise in equal values cannot decide the order.
The sorted array, stored read-only as ``CharacterTable.values``, is the
only copy of the values: each ``Character.values`` is a view of its row.
Every agreement test is one array comparison within VALUE_EQ_TOL; snapping
puts integral parts exactly on their integers, so on integral rows it gives
the verdicts of integer equality.

Character values are algebraic integers, and so are their complex
conjugates.  If the real part a of a value chi is rational, then
2a = chi + conj(chi) is a rational algebraic integer, that is an integer.
If the imaginary part b is rational, then (chi - conj(chi))^2 = -4b^2 is
one too, so the rational number 2b has an integer square and is an integer.
A rational real or imaginary part therefore lies in (1/2)Z.  Parts within
SNAP_TOL of (1/2)Z are snapped to it; every other part, such as
(-1 + sqrt 5)/2, is left as computed.

The whole of ``character_table`` (the full ``eigh``, the refinement rounds
and the orthogonality gram) runs with numpy's bundled OpenBLAS at one
thread, and the caller's thread count is restored afterwards, also when a
check raises.  Two reasons:
- an idle OpenBLAS worker spins on a second core after every ``eigh`` or
  matrix product, so at the default count a table cost about twice its
  wall time in CPU;
- the multithreaded full ``eigh`` returns different bits for the same
  matrix at different thread counts, so above about 200 classes the table
  bytes followed the thread count, whose default is the core count.
The library's thread-count functions are found through ctypes on the first
table, not at import.  Under any other BLAS nothing is pinned, and the
bytes of large tables may still depend on its threading.  Exact values from
power maps, which would make the bytes independent of every BLAS, and
agreement without a tolerance are still open (item 9 of ROADMAP.md).
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ClassMismatch, DegreeMismatch, LemmaViolation, NumericalDegeneracy
from .groups import ConjugacyClassPartition, FiniteGroup

VALUE_EQ_TOL = 1e-9
SNAP_TOL = 1e-7
# eigenvalues within this fraction of the spectrum's scale are refined as one
# cluster, so no eigenvector rests on a smaller gap: its error stays near
# 2**-52 / EIG_SEPARATION_TOL, about 2e-11, far inside VALUE_EQ_TOL
EIG_SEPARATION_TOL = 1e-5
ORTHOGONALITY_TOL = 1e-6
_REFINE_ROUNDS = 8


@dataclass(frozen=True, eq=False)
class Character:
    """One irreducible character: degree plus a value per conjugacy class."""

    degree: int
    #: read-only view of the character's row of ``CharacterTable.values``
    values: np.ndarray = field(repr=False)
    partition: ConjugacyClassPartition
    group_label: str


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    partition: ConjugacyClassPartition
    rows: tuple[Character, ...]
    #: the rows' values as one read-only (r, r) complex128 array, of whose
    #: row i rows[i].values is a view; report rows are serialized from it
    values: np.ndarray = field(repr=False, compare=False)

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

    Every entry is an integer of at most max |coeffs| * |G| < 2**53, so the
    float sum is exact in any order.
    """
    r = len(coeffs)
    weights = np.broadcast_to(coeffs[class_of][:, None], cells.shape)
    return np.bincount(cells.ravel(), weights=weights.ravel(), minlength=r * r).reshape(r, r)


def _round_coeffs(order: int, r: int, inverse: np.ndarray, round_: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One round's seeded integer coefficients (sym, anti): sym[i] = sym[i*] and
    anti[i] = -anti[i*], where i* = inverse[i] is the class of inverses."""
    rng = random.Random(f"class-algebra:{order}:{r}:{round_}")
    a, b = (np.frombuffer(rng.randbytes(8 * r), dtype="<u4") % 999 + 1.0).reshape(2, r)
    return a + a[inverse], b - b[inverse]


def _snap_half_integers(x: np.ndarray) -> np.ndarray:
    """Each entry within SNAP_TOL of (1/2)Z, replaced by that point; -0.0 becomes 0.0."""
    h = np.round(2 * x) / 2 + 0.0
    return np.where(np.abs(x - h) <= SNAP_TOL, h, x)


def _clusters(w: np.ndarray, tol: float) -> list[np.ndarray]:
    """Index runs of two or more ascending eigenvalues whose gaps are at most tol."""
    runs = np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > tol) + 1)
    return [run for run in runs if len(run) > 1]


def _refine(V: np.ndarray, clusters: list[np.ndarray], S: np.ndarray | None,
            A: np.ndarray | None, tol: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Diagonalize S + iA on the span of each cluster of rows of V.

    The class algebra is commutative, so S + iA maps each eigenspace to
    itself.  The clusters' blocks are solved in one stacked eigh per cluster
    size and their rows rotated; returns V and the clusters still unsplit.
    """
    left = []
    for k in sorted({len(c) for c in clusters}):
        idx = np.array([c for c in clusters if len(c) == k])  # (m, k) rows of V
        X = V[idx]  # (m, k, n)
        flat = X.reshape(-1, X.shape[2])
        # row x^T (S - iA) is ((S + iA) x)^T, as S is symmetric and A antisymmetric
        HX = 0 if S is None else flat @ S
        if A is not None:
            HX = HX - 1j * (flat @ A)
        w, W = np.linalg.eigh(X.conj() @ HX.reshape(X.shape).transpose(0, 2, 1))
        if np.iscomplexobj(W):
            V = V.astype(complex, copy=False)
        V[idx] = W.transpose(0, 2, 1) @ X
        for b in np.flatnonzero(np.any(np.diff(w, axis=1) <= tol, axis=1)):
            left += [idx[b][run] for run in _clusters(w[b], tol)]
    return V, left


def _eigenvector_rows(G: FiniteGroup, cells: np.ndarray,
                      part: ConjugacyClassPartition) -> np.ndarray:
    """The common eigenvectors v of the class matrices, a contiguous row each:
    one eigh of the round-0 S, then iA and fresh S + iA rounds on its
    clusters.  Raises NumericalDegeneracy if a cluster outlasts the last round.
    """
    r = part.num_classes
    class_of = np.array(part.class_of)
    inverse = class_of[G._inverses[np.array(part.representatives, dtype=np.intp)]]
    sizes = np.array(part.class_sizes, dtype=float)
    root = np.sqrt(np.outer(sizes, sizes))

    def self_adjoint(coeffs: np.ndarray) -> np.ndarray:
        # M[j, k] * sizes[k] is an exact integer matrix, symmetric or
        # antisymmetric; dividing by the symmetric root keeps that exactly
        return _class_matrix(cells, class_of, coeffs) * sizes / root

    sym, anti = _round_coeffs(G.order, r, inverse, 0)
    w, U = np.linalg.eigh(self_adjoint(sym))
    V = np.ascontiguousarray(U.T)  # eigenvectors u as rows
    tol = EIG_SEPARATION_TOL * max(1.0, float(np.max(np.abs(w))))
    clusters = _clusters(w, tol)
    for round_ in range(1, _REFINE_ROUNDS + 1):
        if not clusters:
            break
        if round_ == 1 and np.any(anti):
            V, clusters = _refine(V, clusters, None, self_adjoint(anti), tol)
            continue
        sym, anti = _round_coeffs(G.order, r, inverse, round_)
        V, clusters = _refine(V, clusters, self_adjoint(sym),
                              self_adjoint(anti) if np.any(anti) else None, tol)
    if clusters:
        raise NumericalDegeneracy(
            f"eigenspaces of {G.label} of dimension {max(map(len, clusters))} "
            f"unsplit after {_REFINE_ROUNDS} refinement rounds")
    return V * np.sqrt(sizes)  # v = D^(1/2) u


def _row_order(degrees: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row permutation by degree, then by descending (real, imag) value pairs
    class by class; values within VALUE_EQ_TOL of each other tie, so float
    noise in equal values cannot decide the order."""
    n, r = values.shape
    keys = np.empty((2 * r, n))  # a key per row of keys, a character per column
    keys[0::2] = -values.real.T
    keys[1::2] = -values.imag.T
    by_key = np.argsort(keys, axis=1)
    steps = np.zeros((2 * r, n), dtype=np.int64)  # dense ranks in sorted order
    np.cumsum(np.diff(np.take_along_axis(keys, by_key, axis=1), axis=1) > VALUE_EQ_TOL,
              axis=1, out=steps[:, 1:])
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, by_key, steps, axis=1)
    # lexsort's last key is primary
    return np.lexsort(np.vstack([ranks[::-1], degrees[None, :]]))


@functools.cache
def _blas_thread_functions() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    bundles, or None where none is found (numpy built on another BLAS)."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    set_.argtypes, set_.restype = (ctypes.c_int,), None
                    return get, set_
    return None


# the thread count is process-wide: one thread's pinned regions at a time, so
# each restores the count that its caller had set
_BLAS_PIN = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread, restoring
    the caller's count afterwards; under any other BLAS, change nothing."""
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    with _BLAS_PIN:
        count = get()
        set_(1)
        try:
            yield
        finally:
            set_(count)


def character_table(G: FiniteGroup) -> CharacterTable:
    """Full table of irreducible characters, deterministic across runs, and
    across thread counts on numpy's bundled OpenBLAS, which it runs at one.

    Raises NumericalDegeneracy naming the first check the computed rows fail.
    """
    with _one_blas_thread():
        return _character_table(G)


def _character_table(G: FiniteGroup) -> CharacterTable:
    cells, part = _class_cells(G)
    r = part.num_classes
    order = G.order
    sizes = np.array(part.class_sizes, dtype=float)
    omega = _eigenvector_rows(G, cells, part)
    prefix = f"character table of {G.label}: "
    if np.any(np.abs(omega[:, 0]) < 1e-12):
        raise NumericalDegeneracy(prefix + "an eigenvector has a zero identity-class entry")
    omega = omega / omega[:, :1]  # identity-class entry of each row is 1
    norms = np.sum(np.abs(omega) ** 2 / sizes, axis=1)
    deg_f = (order / norms) ** 0.5
    degrees = np.round(deg_f)
    if np.any(degrees < 1) or np.any(np.abs(deg_f - degrees) > 1e-6):
        raise NumericalDegeneracy(prefix + "a degree is not a positive integer")
    raw = omega * degrees[:, None] / sizes
    # rows are real when no cluster needed an antisymmetric matrix;
    # set part by part, since a + 1j * b would turn an imaginary -0.0 into +0.0
    values = np.empty((r, r), dtype=complex)
    values.real = _snap_half_integers(raw.real)
    values.imag = _snap_half_integers(raw.imag)
    if (np.any(np.abs(values[:, 0] - degrees) > VALUE_EQ_TOL)
            or np.any(np.abs(values) > degrees[:, None] + 1e-6)):
        raise NumericalDegeneracy(prefix + "a value is above its character's degree")
    deg = degrees.astype(np.int64)
    if int(deg @ deg) != order:
        raise NumericalDegeneracy(f"{prefix}the squared degrees sum to {deg @ deg}, "
                                  f"not the order {order}")
    # the trivial character comes first
    ranked = _row_order(deg, values)
    values = values[ranked]
    values.flags.writeable = False
    rows = tuple(Character(degree=d, values=row, partition=part, group_label=G.label)
                 for d, row in zip(deg[ranked].tolist(), values))
    table = CharacterTable(group=G, partition=part, rows=rows, values=values)
    if not _orthogonality_ok(table):
        raise NumericalDegeneracy(prefix + "the rows are not orthogonal")
    return table


def _orthogonality_ok(table: CharacterTable) -> bool:
    order = table.group.order
    sizes = np.array(table.partition.class_sizes, dtype=float)
    vals = table.values
    gram = (vals * sizes) @ vals.conj().T
    target = order * np.eye(len(table.rows))
    return bool(np.max(np.abs(gram - target)) <= ORTHOGONALITY_TOL * order)


def _check_compatible(chi: Character, chi2: Character, G: FiniteGroup) -> None:
    part = G.conjugacy_classes()
    if chi.partition is not part and chi.partition != part:
        raise ClassMismatch(f"{chi.group_label} character used with group {G.label}")
    if chi2.partition is not part and chi2.partition != part:
        raise ClassMismatch(f"{chi2.group_label} character used with group {G.label}")


def _agrees(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where the values a and b agree, broadcast: within VALUE_EQ_TOL."""
    return np.abs(a - b) <= VALUE_EQ_TOL


def inner_product(chi: Character, chi2: Character, G: FiniteGroup) -> complex:
    """(1/|G|) sum_g chi(g) conj(chi2(g)), evaluated classwise."""
    _check_compatible(chi, chi2, G)
    sizes = np.array(G.conjugacy_classes().class_sizes, dtype=float)
    return complex(np.sum(sizes * chi.values * chi2.values.conj())) / G.order


def agreement_fraction(chi: Character, chi2: Character, G: FiniteGroup) -> Fraction:
    """Exact fraction of group elements on which the two characters agree."""
    _check_compatible(chi, chi2, G)
    sizes = np.array(G.conjugacy_classes().class_sizes)
    return Fraction(int(sizes[_agrees(chi.values, chi2.values)].sum()), G.order)


def characters_equal(chi: Character, chi2: Character) -> bool:
    return (chi.degree == chi2.degree and chi.values.shape == chi2.values.shape
            and bool(np.all(_agrees(chi.values, chi2.values))))


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
    sizes = np.array(table.partition.class_sizes)
    values = table.values[rows]
    best, pair = -1, None
    for a in range(len(rows) - 1):
        # agreement of row a with each later row, in group elements
        agree = _agrees(values[a + 1:], values[a]) @ sizes
        b = int(np.argmax(agree))  # the first of the row's maxima
        if agree[b] > best:
            best, pair = int(agree[b]), (rows[a], rows[a + 1 + b])
    return ExtremalResult(fraction=Fraction(best, G.order), pair=pair, degree=n)
