"""Natural and Dirichlet density estimators, plus the prime power-sum scan.

Both estimators are finite truncations and say so: every estimate carries
its grid, the literal partial values, and diagnostics (truncation-bias
flags, tail bounds, normalized ratios).  The Dirichlet partials divide by
log(1/(s-1)); because that comparison is only faithful when the cutoff
grows like exp(4/(s-1)), the headline ``extrapolated`` value is instead the
truncation-consistent ratio against the full prime sum at the same cutoff.

Natural-density counts and Frobenius class counts are exact integers that
depend only on p mod q, for q the selector's or the field's modulus.  When
``sieve.residue_counts_pay`` accepts x and q, they are read off
``sieve.residue_prime_counts`` instead of a sieve walk: at 1e8 the mod-4
selector takes about 0.05 s per grid point, N = 11 0.07 s and the compound
q = 56 selector 0.10 s, against 0.36 s for the sieve.  The model turns away
every cutoff below about 2.7e6, and it reads only the modulus before it
accepts one, so a huge compound modulus is never lifted to its residue set.
``frobstats`` then takes ``first_hits`` from sieve segments in order until
every nonempty class has its least prime, one segment for N = 11.  Both
paths give the same integers, so the report bytes are the same.

The Dirichlet sums and ``prime_zeta`` sum p^-s, which is completely
multiplicative, so the same recurrence carries them on float64 rows
(``sieve.residue_prime_power_sums``) for a selector with a congruence
modulus and a uniform norm exponent, whenever the model accepts the rows.
At 1e8, ``density dirichlet mod:8`` took 0.09 s this way against 0.45 s on
the sieve.  The recurrence sums in another order than the segments, so
those reports may differ from the sieve path's in their last bits, within
the error bound in ``residue_prime_power_sums``.  Every other selector walks
``segment_map``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LimitExceeded, UsageError
from .selectors import PrimeSelector
from .sieve import (PRIME_LIMIT, iter_prime_segments, residue_counts_pay,
                    residue_prime_counts, residue_prime_power_sums, residues,
                    segment_map, simple_sieve)

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
    if grid[-1] > PRIME_LIMIT:
        raise LimitExceeded(f"natural density cutoff capped at {PRIME_LIMIT}")
    modulus = selector.congruence_modulus()
    if modulus is not None and residue_counts_pay(grid, modulus):
        sel_tot, un_tot = _natural_counts_by_residue(selector, grid)
    else:
        sel_tot, un_tot = _natural_counts_by_segment(selector, grid, workers)
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


def _natural_counts_by_residue(selector: PrimeSelector, grid: list[int]):
    """Selected and unramified prime counts at each grid point from the prime
    counts per residue class of the selector's congruence description."""
    modulus, residues = selector.as_congruence()
    chosen = np.array(sorted(residues), dtype=np.int64)
    excluded = np.array(sorted(selector.excluded), dtype=np.int64)
    sel_tot = np.zeros(len(grid), dtype=np.int64)
    un_tot = np.zeros(len(grid), dtype=np.int64)
    for i, x in enumerate(grid):
        counts = residue_prime_counts(x, modulus)
        sel_tot[i] = counts[chosen].sum()
        un_tot[i] = counts.sum() - np.count_nonzero(excluded <= x)
    return sel_tot, un_tot


def _natural_counts_by_segment(selector: PrimeSelector, grid: list[int], workers: int | None):
    excluded = np.array(sorted(selector.excluded), dtype=np.int64)
    bounds = np.array(grid, dtype=np.int64)

    def per_segment(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sel = selector.mask(seg)
        unram = ~np.isin(seg, excluded) if len(excluded) else np.ones(len(seg), dtype=bool)
        # counts below each grid point, cumulative within the segment
        pos = np.searchsorted(seg, bounds, side="right")
        sel_c = np.cumsum(sel)
        un_c = np.cumsum(unram)
        take = lambda c: np.where(pos > 0, c[np.maximum(pos - 1, 0)], 0)
        return take(sel_c), take(un_c)

    sel_tot = np.zeros(len(grid), dtype=np.int64)
    un_tot = np.zeros(len(grid), dtype=np.int64)
    for sel_part, un_part in segment_map(grid[-1], per_segment, workers=workers):
        sel_tot += sel_part
        un_tot += un_part
    return sel_tot, un_tot


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
    if cutoff > PRIME_LIMIT:
        raise LimitExceeded(f"dirichlet cutoff capped at {PRIME_LIMIT}")
    modulus = selector.congruence_modulus()
    j = selector.norm_exponent
    # at or below the floor the floored sums are empty, and only term by term exactly 0
    if (modulus is not None and j is not None and cutoff > SMALL_PRIME_FLOOR
            and residue_counts_pay((cutoff,), modulus, exponents=len(s_values))):
        sums = _dirichlet_sums_by_residue(selector, s_values, cutoff)
    else:
        sums = _dirichlet_sums_by_segment(selector, s_values, cutoff, workers)
    numerator, num_floored, reference, ref_floored = sums
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


def _dirichlet_sums_by_residue(selector: PrimeSelector, s_values: list[float], cutoff: int):
    """The four Dirichlet sums from one run of ``residue_prime_power_sums`` at s.

    Its rows give the reference, less the excluded primes, and for j = 1 the
    numerator, one place multiplicity per selected class.  For j >= 2 every
    prime of norm p**j <= cutoff lies below sqrt(cutoff), and the numerator
    is summed term by term: rows at j*s would double the run and lose the
    floored sum, which is tiny there, to cancellation.  The floored sums
    take off the primes up to SMALL_PRIME_FLOOR term by term.
    """
    j = selector.norm_exponent
    s_arr = np.array(s_values)
    rows = residue_prime_power_sums(cutoff, selector.congruence_modulus(), s_arr)
    excluded = np.array(sorted(p for p in selector.excluded if p <= cutoff), dtype=np.int64)
    reference = rows.sum(axis=1) - _power_sums(excluded, s_arr)
    small = simple_sieve(min(SMALL_PRIME_FLOOR, cutoff))
    ref_floored = reference - _power_sums(small[~np.isin(small, excluded)], s_arr)
    if j == 1:
        classes = np.flatnonzero(selector.residue_table()[1])
        # a place multiplicity depends only on the class: residues stand in for primes
        numerator = (rows[:, classes] * selector.place_multiplicity(classes)).sum(axis=1)
        picked = small[selector.mask(small)]
        num_floored = numerator - _power_sums(picked, s_arr, selector.place_multiplicity(picked))
    else:
        primes = simple_sieve(math.isqrt(cutoff))
        picked = primes[selector.mask(primes)]
        norms = selector.norms(picked)
        picked, norms = picked[norms <= cutoff], norms[norms <= cutoff]
        mult = selector.place_multiplicity(picked)
        numerator = _power_sums(norms, s_arr, mult)
        above = picked > SMALL_PRIME_FLOOR
        num_floored = _power_sums(norms[above], s_arr, mult[above])
    return numerator, num_floored, reference, ref_floored


def _power_sums(bases: np.ndarray, s_arr: np.ndarray, weights=1.0) -> np.ndarray:
    """The sum of weights * b^-s over ``bases``, one entry per s of ``s_arr``."""
    return (weights * bases.astype(np.float64)[None, :] ** -s_arr[:, None]).sum(axis=1)


def _dirichlet_sums_by_segment(selector: PrimeSelector, s_values: list[float], cutoff: int,
                               workers: int | None):
    s_arr = np.array(s_values)
    excluded = np.array(sorted(selector.excluded), dtype=np.int64)

    def one_sum(primes: np.ndarray, norms: np.ndarray, mult: np.ndarray) -> np.ndarray:
        keep = norms <= cutoff
        if not keep.any():
            return np.zeros(len(s_values))
        n, m = norms[keep], mult[keep]
        return (m[None, :] * n[None, :] ** (-s_arr[:, None])).sum(axis=1)

    def per_segment(seg: np.ndarray):
        sel = selector.mask(seg)
        chosen = seg[sel]
        norms = selector.norms(chosen)
        mult = selector.place_multiplicity(chosen).astype(np.float64)
        sums = one_sum(chosen, norms, mult)
        unram = ~np.isin(seg, excluded) if len(excluded) else np.ones(len(seg), dtype=bool)
        kept = seg[unram].astype(np.float64)
        ref = (kept[None, :] ** (-s_arr[:, None])).sum(axis=1)
        if len(seg) and seg[0] > SMALL_PRIME_FLOOR:
            # no prime at or below the floor: the floored sums are these sums
            return sums, sums, ref, ref
        floor_mask = chosen > SMALL_PRIME_FLOOR
        sums_floored = one_sum(chosen[floor_mask], norms[floor_mask], mult[floor_mask])
        kept_f = kept[kept > SMALL_PRIME_FLOOR]
        ref_floored = (kept_f[None, :] ** (-s_arr[:, None])).sum(axis=1)
        return sums, sums_floored, ref, ref_floored

    numerator = np.zeros(len(s_values))
    num_floored = np.zeros(len(s_values))
    reference = np.zeros(len(s_values))
    ref_floored = np.zeros(len(s_values))
    for part, part_f, ref, ref_f in segment_map(cutoff, per_segment, workers=workers):
        numerator += part
        num_floored += part_f
        reference += ref
        ref_floored += ref_f
    return numerator, num_floored, reference, ref_floored


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
    if cutoff > PRIME_LIMIT:
        raise LimitExceeded(f"cutoff capped at {PRIME_LIMIT}")
    coset_table, reps = fs._coset_table
    num_classes = len(reps)
    N = fs.modulus
    if residue_counts_pay((cutoff,), N):
        counts = np.zeros(num_classes, dtype=np.int64)
        unit = coset_table >= 0
        np.add.at(counts, coset_table[unit], residue_prime_counts(cutoff, N)[unit])
        first_hits = _first_hits(coset_table, cutoff, counts > 0)
    else:
        counts, first_hits = _frobenius_by_segment(coset_table, num_classes, N, cutoff, workers)
    total = int(counts.sum())
    first_hits = tuple(int(f) for f in first_hits)
    return FrobeniusStatistics(
        fieldspec=fs.label,
        cutoff=int(cutoff),
        class_labels=tuple(int(r) for r in reps),
        counts=tuple(int(c) for c in counts),
        fractions=tuple(float(c) / total if total else 0.0 for c in counts),
        first_hits=first_hits,
        first_hit_bound=max(first_hits, default=0),
        total_unramified=total,
    )


def _first_hits(coset_table: np.ndarray, cutoff: int, nonempty: np.ndarray) -> np.ndarray:
    """The least prime of each class, -1 for an empty one, from a prefix of
    sieve segments that grows until every nonempty class has its hit."""
    first = np.full(len(nonempty), -1, dtype=np.int64)
    for seg in iter_prime_segments(cutoff):
        classes, at = np.unique(coset_table[residues(seg, len(coset_table))], return_index=True)
        new = classes >= 0
        new[new] = first[classes[new]] < 0
        first[classes[new]] = seg[at[new]]
        if np.array_equal(first >= 0, nonempty):
            break
    return first


def _frobenius_by_segment(coset_table, num_classes, N, cutoff, workers):
    def per_segment(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = coset_table[residues(seg, N)]
        keep = idx >= 0
        kept, kidx = seg[keep], idx[keep]
        counts = np.bincount(kidx, minlength=num_classes)
        first = np.full(num_classes, -1, dtype=np.int64)
        # np.unique's return_index is the first occurrence of each class
        classes, at = np.unique(kidx, return_index=True)
        first[classes] = kept[at]
        return counts, first

    counts = np.zeros(num_classes, dtype=np.int64)
    first_hits = np.full(num_classes, -1, dtype=np.int64)
    for part_counts, part_first in segment_map(cutoff, per_segment, workers=workers):
        counts += part_counts
        fill = (first_hits == -1) & (part_first != -1)
        first_hits[fill] = part_first[fill]
    return counts, first_hits


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
    if cutoff > PRIME_LIMIT:
        raise LimitExceeded(f"cutoff capped at {PRIME_LIMIT}")
    if residue_counts_pay((cutoff,), 1, exponents=1):
        total = float(residue_prime_power_sums(cutoff, 1, [s])[0, 0])
    else:
        total = 0.0
        for part in segment_map(cutoff, lambda seg: float((seg.astype(np.float64) ** (-s)).sum()),
                                workers=workers):
            total += part
    if cutoff >= 2:
        tail = cutoff ** (1.0 - s) / ((s - 1.0) * math.log(cutoff))
    else:
        tail = float("inf")
    return PrimeZetaScan(s=float(s), cutoff=int(cutoff), value=total,
                         deviation=total - math.log(1.0 / (s - 1.0)),
                         tail_bound=tail)
