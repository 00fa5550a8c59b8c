"""Natural and Dirichlet density estimators, plus the prime power-sum scan.

Both estimators are finite truncations and say so: every estimate carries
its grid, the literal partial values, and diagnostics (truncation-bias
flags, tail bounds, normalized ratios).  The Dirichlet partials divide by
log(1/(s-1)); because that comparison is only faithful when the cutoff
grows like exp(4/(s-1)), the headline ``extrapolated`` value is instead the
truncation-consistent ratio against the full prime sum at the same cutoff.

Every statistic here is a reduction over per-class prime counts or per-class
sums of p^-s, and takes them from one call, ``sieve.class_sums``.  The
natural and Dirichlet estimators put the selected primes in class 0, the
other unramified ones in class 1 and the excluded ones nowhere
(``_selector_classes``); ``frobstats`` uses the cosets of (Z/N)*/H and
``prime_zeta`` one class of all primes.  Each names its classes once, by a
function of a prime array, with the modulus its classes depend on.
``class_sums`` reads the classes off Lucy's recurrence by residue class, one
``sieve.residue_sums`` call, whenever the sieve's cost model accepts the
modulus, and otherwise off one sieve walk; a selector with no modulus
(``list:``, or a compound holding one) always sieves, and a huge compound
modulus is refused by the model before any table is built.  The prime cap
is checked once, where the walk starts (``sieve.residue_sums`` or
``sieve.segment_map``).
In process on a 2-vCPU x86-64 VM, ``density natural`` took about 0.02 s
for mod:4 on the grid 1e6, 1e7, 1e8, and ``frobstats`` 0.03 s for N = 11
at 1e8, against 0.36 s for one sieve to 1e8.  ``frobstats`` then takes
``first_hits`` from ``prime_stream`` in order until every nonempty class has
its least prime, one chunk of the first segment for N = 11.

Counts are exact, so natural and ``frobstats`` reports are the same bytes
on both paths, and a single class sums in the same order on the sieve as a
plain per-segment sum, so ``prime_zeta`` on the sieve keeps its bits.  The
Dirichlet sums may move in their last bits: the recurrence sums in another
order than the sieve, within the error bound of ``class_sums``; the
reference is the sum of two classes; a place multiplicity multiplies the
class sum rather than each term; and the floored sums take the primes up to
SMALL_PRIME_FLOOR off the full sums term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .selectors import PrimeSelector
from .sieve import class_sums, prime_stream, simple_sieve
# segment_map is not called here; perfbench/tracer.py wraps it under this name
from .sieve import segment_map

RECOMMENDED_CUTOFF_RATE = 4.0
# density is insensitive to finite prime sets; the normalized ratio drops
# p <= this floor so a handful of tiny primes cannot dominate the weights
SMALL_PRIME_FLOOR = 100


@dataclass(frozen=True)
class DensityEstimate:
    estimand: str  # "natural" | "dirichlet"
    sample_points: tuple[float, ...]
    partial_values: tuple[float, ...]
    extrapolated: float
    diagnostics: dict = field(default_factory=dict)


def natural_density_estimate(selector: PrimeSelector, x_grid,
                             workers: int | None = None) -> DensityEstimate:
    """Counting ratios #{p in S, p <= x} / #{p <= x unramified} on a grid."""
    grid = [int(x) for x in x_grid]
    if not grid:
        raise UsageError("need at least one x cutoff")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError("x grid must be strictly ascending")
    counts = class_sums(grid, 2, *_selector_classes(selector), workers=workers)
    sel_tot, un_tot = counts[:, 0], counts.sum(axis=1)
    ratios = tuple(float(s) / u if u else 0.0 for s, u in zip(sel_tot, un_tot))
    return DensityEstimate(
        estimand="natural",
        sample_points=tuple(float(x) for x in grid),
        partial_values=ratios,
        extrapolated=ratios[-1],
        diagnostics={
            "selected_counts": [int(v) for v in sel_tot],
            "reference_counts": [int(v) for v in un_tot],
            "selector": selector.describe(),
        },
    )


def _selector_classes(selector: PrimeSelector):
    """The ``class_sums`` arguments (classes, modulus) that put a selector's
    primes in class 0, the other unramified primes in class 1 and the
    excluded primes in class -1.  The modulus is ``congruence_modulus()``,
    whose rule lets the recurrence read the classes off the residues."""
    excluded = np.array(sorted(selector.excluded), dtype=np.int64)

    def classes(primes: np.ndarray) -> np.ndarray:
        out = np.where(selector.mask(primes), 0, 1)
        if len(excluded):
            out[np.isin(primes, excluded)] = -1
        return out

    return classes, selector.congruence_modulus()


def dirichlet_density_estimate(selector: PrimeSelector, s_grid, cutoff: int,
                               workers: int | None = None) -> DensityEstimate:
    """Norm-weighted partial sums of q^-s against log(1/(s-1)).

    Selected primes contribute one term per place: with residue degree j and
    multiplicity g = deg/j, the contribution is g * p**(-j*s); so inert
    primes of a degree-d field enter as p**(-d*s).
    """
    s_values = [float(s) for s in s_grid]
    if not s_values or any(not (1.0 < s <= 2.0) for s in s_values):
        raise UsageError("s grid must lie in (1, 2]")
    if any(b >= a for a, b in zip(s_values, s_values[1:])):
        raise UsageError("s grid must descend toward 1")
    numerator, num_floored, reference, ref_floored = _dirichlet_sums(
        selector, np.array(s_values), cutoff, workers)
    log_terms = [math.log(1.0 / (s - 1.0)) for s in s_values]
    partials = tuple(float(n / l) if l > 0 else float("inf")
                     for n, l in zip(numerator, log_terms))
    normalized = tuple(float(n / r) if r > 0 else 0.0
                       for n, r in zip(num_floored, ref_floored))
    bias_flags = tuple(bool(cutoff < math.exp(min(RECOMMENDED_CUTOFF_RATE / (s - 1.0), 50.0)))
                       for s in s_values)
    return DensityEstimate(
        estimand="dirichlet",
        sample_points=tuple(s_values),
        partial_values=partials,
        extrapolated=normalized[-1],
        diagnostics={
            "cutoff": int(cutoff),
            "numerator_sums": [float(v) for v in numerator],
            "reference_sums": [float(v) for v in reference],
            "normalized_ratios": list(normalized),
            "small_prime_floor": SMALL_PRIME_FLOOR,
            "truncation_bias": list(bias_flags),
            "selector": selector.describe(),
        },
    )


def _dirichlet_sums(selector: PrimeSelector, s_arr: np.ndarray, cutoff: int,
                    workers: int | None):
    """The numerator, reference and their floored sums at every s.

    One ``class_sums`` run gives the selected and the other unramified sums
    of p^-s: together the reference, and for norms p**1 the numerator, times
    the place multiplicity, which is the same for every prime of a selector.
    For j >= 2 every prime of norm p**j <= cutoff lies below sqrt(cutoff),
    and the numerator is summed term by term.  The floored sums take off the
    primes up to SMALL_PRIME_FLOOR term by term, and are exactly 0 when the
    cutoff is at or below the floor.
    """
    j = selector.norm_exponent or 1
    sums = class_sums([cutoff], 2, *_selector_classes(selector), exponents=s_arr,
                      workers=workers)[0]
    excluded = np.array(sorted(selector.excluded), dtype=np.int64)
    reference = sums[:, 0] + sums[:, 1]
    small = simple_sieve(min(SMALL_PRIME_FLOOR, cutoff))
    if j == 1:
        mult = selector.place_multiplicity(np.array([2]))[0]  # the same at every prime
        numerator = mult * sums[:, 0]
        num_floored = mult * (sums[:, 0] - _power_sums(small[selector.mask(small)], s_arr))
    else:
        primes = simple_sieve(math.isqrt(max(cutoff, 0)))
        picked = primes[selector.mask(primes)]
        norms = selector.norms(picked)
        picked, norms = picked[norms <= cutoff], norms[norms <= cutoff]
        mult = selector.place_multiplicity(picked)
        numerator = _power_sums(norms, s_arr, mult)
        above = picked > SMALL_PRIME_FLOOR
        num_floored = _power_sums(norms[above], s_arr, mult[above])
    ref_floored = reference - _power_sums(small[~np.isin(small, excluded)], s_arr)
    if cutoff <= SMALL_PRIME_FLOOR:
        num_floored = ref_floored = np.zeros(len(s_arr))
    return numerator, num_floored, reference, ref_floored


def _power_sums(bases: np.ndarray, s_arr: np.ndarray, weights=1) -> np.ndarray:
    """The sum of weights * b^-s over ``bases``, one entry per s of ``s_arr``,
    each one pairwise sum in the order of ``bases`` as ``class_sums`` takes it."""
    b = bases.astype(np.float64)
    return np.array([(weights * b ** -s).sum() for s in s_arr.tolist()])


@dataclass(frozen=True)
class FrobeniusStatistics:
    fieldspec: str
    cutoff: int
    class_labels: tuple[int, ...]  # canonical coset representatives
    counts: tuple[int, ...]
    fractions: tuple[float, ...]
    first_hits: tuple[int, ...]    # smallest prime landing in each class
    first_hit_bound: int           # the largest first hit, 0 with no class
    total_unramified: int


def frobenius_statistics(fs, cutoff: int, workers: int | None = None) -> FrobeniusStatistics:
    """Tally the class of p in (Z/N)*/H over unramified primes p <= cutoff."""
    counts = class_sums([cutoff], len(fs.class_labels), fs.classes, fs.modulus,
                        workers=workers)[0]
    first_hits = tuple(int(f) for f in _first_hits(fs.classes, cutoff, counts > 0))
    total = int(counts.sum())
    return FrobeniusStatistics(
        fieldspec=fs.label,
        cutoff=int(cutoff),
        class_labels=fs.class_labels,
        counts=tuple(int(c) for c in counts),
        fractions=tuple(float(c) / total if total else 0.0 for c in counts),
        first_hits=first_hits,
        first_hit_bound=max(first_hits, default=0),
        total_unramified=total,
    )


def _first_hits(classes_of, cutoff: int, nonempty: np.ndarray) -> np.ndarray:
    """The least prime of each ``classes_of`` class, -1 for an empty one, from
    a prefix of ``prime_stream`` that grows until every nonempty class has its hit."""
    first = np.full(len(nonempty), -1, dtype=np.int64)
    for seg in prime_stream(cutoff):
        classes, at = np.unique(classes_of(seg), return_index=True)
        new = classes >= 0
        new[new] = first[classes[new]] < 0
        first[classes[new]] = seg[at[new]]
        if np.array_equal(first >= 0, nonempty):
            break
    return first


@dataclass(frozen=True)
class PrimeZetaScan:
    s: float
    cutoff: int
    value: float
    deviation: float
    tail_bound: float


def prime_zeta(s: float, cutoff: int, workers: int | None = None) -> PrimeZetaScan:
    """Truncated sum over primes of p^-s and its offset from log(1/(s-1))."""
    if s <= 1.0:
        raise UsageError("prime power-sum scan needs s > 1")
    total = float(class_sums([cutoff], 1, lambda seg: np.zeros(len(seg), dtype=np.int64), 1,
                             exponents=[s], workers=workers)[0, 0, 0])
    if cutoff >= 2:
        tail = cutoff ** (1.0 - s) / ((s - 1.0) * math.log(cutoff))
    else:
        tail = float("inf")
    return PrimeZetaScan(s=float(s), cutoff=int(cutoff), value=total,
                         deviation=total - math.log(1.0 / (s - 1.0)),
                         tail_bound=tail)
