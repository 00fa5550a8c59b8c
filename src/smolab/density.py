"""Natural and Dirichlet density estimators, plus the prime power-sum scan.

Both estimators are finite truncations and say so: every estimate carries
its grid, the literal partial values, and diagnostics (truncation-bias
flags, tail bounds, normalized ratios).  The Dirichlet partials divide by
log(1/(s-1)); because that comparison is only faithful when the cutoff
grows like exp(4/(s-1)), the headline ``extrapolated`` value is instead the
truncation-consistent ratio against the full prime sum at the same cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LimitExceeded, UsageError
from .selectors import PrimeSelector
from .sieve import PRIME_LIMIT, segment_map

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


@dataclass(frozen=True)
class FrobeniusStatistics:
    fieldspec_label: str
    cutoff: int
    class_labels: tuple[int, ...]  # canonical coset representatives
    counts: tuple[int, ...]
    fractions: tuple[float, ...]
    first_hits: tuple[int, ...]    # smallest prime landing in each class
    total_unramified: int

    @property
    def first_hit_bound(self) -> int:
        return max(self.first_hits) if self.first_hits else 0

    def payload(self) -> dict:
        return {
            "fieldspec": self.fieldspec_label,
            "cutoff": self.cutoff,
            "class_labels": self.class_labels,
            "counts": self.counts,
            "fractions": self.fractions,
            "first_hits": self.first_hits,
            "first_hit_bound": self.first_hit_bound,
            "total_unramified": self.total_unramified,
        }


def frobenius_statistics(fs, cutoff: int, workers: int | None = None) -> FrobeniusStatistics:
    """Tally the class of p in (Z/N)*/H over unramified primes p <= cutoff."""
    if cutoff > PRIME_LIMIT:
        raise LimitExceeded(f"cutoff capped at {PRIME_LIMIT}")
    coset_table, reps = fs._coset_table
    num_classes = len(reps)
    N = fs.modulus

    def per_segment(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = coset_table[seg % N] if N > 1 else np.zeros(len(seg), dtype=np.int64)
        keep = idx >= 0
        counts = np.bincount(idx[keep], minlength=num_classes)
        first = np.full(num_classes, -1, dtype=np.int64)
        kept, kidx = seg[keep], idx[keep]
        for c in range(num_classes):
            where = np.flatnonzero(kidx == c)
            if len(where):
                first[c] = kept[where[0]]
        return counts, first

    counts = np.zeros(num_classes, dtype=np.int64)
    first_hits = np.full(num_classes, -1, dtype=np.int64)
    for part_counts, part_first in segment_map(cutoff, per_segment, workers=workers):
        counts += part_counts
        fill = (first_hits == -1) & (part_first != -1)
        first_hits[fill] = part_first[fill]
    total = int(counts.sum())
    return FrobeniusStatistics(
        fieldspec_label=fs.label,
        cutoff=int(cutoff),
        class_labels=tuple(int(r) for r in reps),
        counts=tuple(int(c) for c in counts),
        fractions=tuple(float(c) / total if total else 0.0 for c in counts),
        first_hits=tuple(int(f) for f in first_hits),
        total_unramified=total,
    )


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
