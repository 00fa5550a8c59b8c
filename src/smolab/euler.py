"""Local Euler factors and their truncated products over arrays of primes.

A local factor at norm q with parameters (a_1, ..., a_k) is the function
prod_i (1 - a_i q^-s)^-1; its poles lie on vertical lines, the rightmost at
Re(s) = max_i log|a_i| / log q.

An ``EulerProduct`` is a universe of primes, the ramified primes it leaves
out, and a place source: ``places(primes)`` maps an int64 prime array to the
(len, g) int norm exponents f of the places above each p (norm p**f, 0 for
no place) and their (len, g, k) complex parameters, zero-padded.  The
universe is a selector: ``AllPrimes()``, or the ``ExplicitList`` of the
primes with data, whose largest prime also ends every walk.
``log_expansion`` walks the universe once through ``prime_stream``, masks each
array with the selector and forms the power sums of every place by repeated
multiplication while q**m stays within the cutoff.  Coefficients are indexed
by exact integer prime powers, in ascending index and aligned value arrays,
and every report carries its cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .errors import (LimitExceeded, NormMismatch, NotPositiveType, PoleHit,
                     UnknownProfile, UsageError)
from .selectors import PrimeSelector
# iter_prime_segments is not called here; perfbench/tracer.py wraps it under this name
from .sieve import iter_prime_segments, prefix_sums, prime_stream

POSITIVITY_TOL = 1e-9
LOG_INDEX_LIMIT = 10**8
STABILIZE_TOL = 1e-6


@dataclass(frozen=True)
class LocalFactor:
    """Reciprocal-polynomial data of one local factor: k parameters at norm q."""

    q: int
    alphas: tuple[complex, ...]
    degree: int

    def __post_init__(self):
        if self.q < 2:
            raise UsageError(f"norm must be >= 2, got {self.q}")
        if len(self.alphas) > self.degree:
            raise UsageError(f"{len(self.alphas)} parameters exceed degree {self.degree}")
        if any(a == 0 for a in self.alphas):
            raise UsageError("local parameters must be nonzero")
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))

    @property
    def k(self) -> int:
        return len(self.alphas)


def eval_local(f: LocalFactor, s: complex) -> complex:
    """Evaluate the factor at s; raises PoleHit if q^s equals some parameter."""
    try:
        q = complex(f.q)
    except OverflowError:
        raise UsageError(f"norm q with {len(str(f.q))} digits is too large to evaluate "
                         "in floating point") from None
    qs = q ** (-complex(s))
    value = 1.0 + 0.0j
    for i, a in enumerate(f.alphas):
        d = 1.0 - a * qs
        if abs(d) < 1e-12:
            raise PoleHit(i)
        value /= d
    return value


def first_pole_line(f: LocalFactor) -> float | None:
    """Real part of the rightmost pole line, or None for the constant factor 1."""
    if f.k == 0:
        return None
    return max(math.log(abs(a)) for a in f.alphas) / math.log(f.q)


def rankin_selberg_local(f: LocalFactor, g: LocalFactor,
                         conjugate_second: bool = True) -> LocalFactor:
    """Pairwise-product parameters {a_i * c(b_j)}; c conjugates iff flagged."""
    if f.q != g.q:
        raise NormMismatch(f"norms differ: {f.q} != {g.q}")
    betas = [b.conjugate() if conjugate_second else b for b in g.alphas]
    params = tuple(a * b for a in f.alphas for b in betas)
    return LocalFactor(q=f.q, alphas=params, degree=f.degree * g.degree)


@dataclass(frozen=True)
class RankinSelbergCoefficient:
    """Degree-2 leading coefficient of the paired local factor, both conventions."""

    conjugated: complex   # sum_ij a_i conj(a_j) = |sum_i a_i|^2
    unconjugated: complex  # sum_ij a_i a_j = (sum_i a_i)^2


def rs_leading_coefficient(f: LocalFactor) -> RankinSelbergCoefficient:
    if f.k < 1:
        raise UsageError("need at least one local parameter")
    total = sum(f.alphas)
    conj_val = sum(a * b.conjugate() for a in f.alphas for b in f.alphas)
    unconj_val = total * total
    return RankinSelbergCoefficient(conjugated=conj_val, unconjugated=unconj_val)


# -- global (truncated) products -------------------------------------------------

@dataclass(frozen=True)
class EulerProduct:
    """Place arrays over a universe of primes; see the module docstring."""

    places: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(compare=False)
    universe: PrimeSelector
    ramified: frozenset[int] = frozenset()

    def segments(self, max_prime: int) -> Iterator[np.ndarray]:
        if self.universe.largest_prime is not None:
            max_prime = min(max_prime, self.universe.largest_prime)
        return prime_stream(max_prime, self.universe, exclude=self.ramified)


def zeta_product() -> EulerProduct:
    """Model with a single parameter 1 at every prime: the Dedekind zeta of Q."""
    from .fields import FieldSpec
    return dedekind_product(FieldSpec(1))


def dedekind_product(fs) -> EulerProduct:
    """Abelian-field zeta model: g = degree / f places of norm p^f, parameter 1."""
    from .selectors import AllPrimes

    def places(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f = fs.residue_degrees(primes)[:, None]  # 0 at ramified primes
        g = fs.degree // np.maximum(f, 1)
        exponents = np.where(np.arange(fs.degree) < g, f, 0)
        return exponents, np.ones((len(primes), fs.degree, 1), dtype=np.complex128)

    return EulerProduct(places=places, universe=AllPrimes(), ramified=fs.ramified_primes())


@dataclass(frozen=True)
class LogExpansion:
    """Coefficients of the log of a truncated product at ascending prime powers."""

    cutoff: int
    indices: np.ndarray       # ascending int64 prime powers <= cutoff
    coefficients: np.ndarray  # complex128, aligned with indices

    def dirichlet_value(self, sigma: float) -> float:
        return float(np.sum(self.coefficients.real * self.indices ** -sigma))


def log_expansion(ep: EulerProduct, selector: PrimeSelector, max_index: int) -> LogExpansion:
    """Exact prime-power coefficients of log of the selected partial product.

    The coefficient at q**m is (sum_i a_i**m) / m for each place of norm q,
    the power sums taken by repeated multiplication.  Places at one prime
    can reach the same integer (p**(1*2) = p**(2*1)); their terms add.
    """
    if max_index > LOG_INDEX_LIMIT:
        raise LimitExceeded(f"log-expansion index capped at {LOG_INDEX_LIMIT}")
    indices, terms = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.complex128)]
    for primes in ep.segments(max_index):
        primes = primes[selector.mask(primes)]
        exponents, params = ep.places(primes)
        row, col = np.nonzero(exponents)
        p, f = primes[row], exponents[row, col]
        # norms p**f capped at max_index + 1: an f log p clearly above the cap is
        # capped before the exact power is taken, so int64 cannot overflow
        over = f * np.log(p) > math.log(max_index + 1) + 1.0
        q = np.where(over, max_index + 1, np.power(p, np.where(over, 1, f)))
        live = q <= max_index
        q, alphas = q[live], params[row[live], col[live]]
        power, powers, m = q, alphas, 1
        while len(q):
            indices.append(power)
            terms.append(powers.sum(axis=1) / m)
            power, powers, m = power * q, powers * alphas, m + 1
            live = power <= max_index
            q, alphas, power, powers = q[live], alphas[live], power[live], powers[live]
    index, at = np.unique(np.concatenate(indices), return_inverse=True)
    coefficients = np.zeros(len(index), dtype=np.complex128)
    np.add.at(coefficients, at, np.concatenate(terms))
    return LogExpansion(cutoff=max_index, indices=index, coefficients=coefficients)


def _first_violation(le: LogExpansion) -> tuple[bool, int | None]:
    z = le.coefficients
    bad = le.indices[(z.real < -POSITIVITY_TOL) | (np.abs(z.imag) > POSITIVITY_TOL)]
    return (False, int(bad[0])) if len(bad) else (True, None)


def positive_type_check(ep: EulerProduct, selector: PrimeSelector,
                        max_index: int) -> tuple[bool, int | None]:
    """True iff every log coefficient is >= -1e-9 (and essentially real)."""
    return _first_violation(log_expansion(ep, selector, max_index))


@dataclass(frozen=True)
class LandauReport:
    sigmas: tuple[float, ...]
    log_values: tuple[float, ...]
    values: tuple[float, ...]
    cutoff: int
    nonvanishing: bool  # every value >= 1


def landau_region_check(ep: EulerProduct, selector: PrimeSelector,
                        sigmas, max_index: int) -> LandauReport:
    """Witness that a positive-type truncation stays >= 1 on real points.

    Nonnegative log coefficients force exp(sum c_m m^-sigma) >= 1, which is
    the truncation-level certificate that no zero can occur there.
    """
    le = log_expansion(ep, selector, max_index)
    ok, first_bad = _first_violation(le)
    if not ok:
        raise NotPositiveType(f"log coefficient at index {first_bad} is negative")
    logs = tuple(le.dirichlet_value(float(s)) for s in sigmas)
    values = tuple(math.exp(v) for v in logs)
    return LandauReport(sigmas=tuple(float(s) for s in sigmas),
                        log_values=logs,
                        values=values,
                        cutoff=max_index,
                        nonvanishing=all(v >= 1.0 for v in values))


# -- abscissa arithmetic ---------------------------------------------------------


def key_observation_abscissa(delta, j: int):
    """delta + 1/j: absolute-convergence edge for degree-j products with |a| <= q^delta."""
    if j < 1:
        raise UsageError("degree j must be >= 1")
    if isinstance(delta, (int, Fraction)):
        return Fraction(delta) + Fraction(1, j)
    return float(delta) + 1.0 / j


@dataclass(frozen=True)
class ConvergenceProbe:
    sigmas: tuple[float, ...]
    cutoffs: tuple[int, ...]
    partial_sums: dict[float, tuple[float, ...]]
    # "stabilized" iff the last two cutoffs differ by < STABILIZE_TOL (absolute);
    # just right of the edge a convergent product still reads "growing"
    classifications: dict[float, str]  # "stabilized" | "growing"
    delta: float
    norm_exponent: int | None
    analytic_abscissa: float | None


def convergence_probe(selector: PrimeSelector, delta: float, sigmas,
                      cutoffs) -> ConvergenceProbe:
    """Worst-case partial log-sums sum_q sum_m q^(-(sigma-delta)m)/m.

    Every selected place is given the extremal parameter size q^delta.  A
    sigma is classified "stabilized" when the partial sums at the last two
    cutoffs differ by less than 1e-6 (absolute) and "growing" otherwise.
    The label is a numerical reading, not a convergence verdict: the tail
    beyond norm X decays only like X^-(sigma - delta - 1/j), so just right of
    the edge a convergent product is labelled "growing" at every computable
    cutoff.  The convergence verdict is ``analytic_abscissa``, the edge
    delta + 1/j.  The sums are one ``prefix_sums`` walk, a row per sigma.
    """
    sig = tuple(float(s) for s in sigmas)
    cuts = tuple(int(c) for c in sorted(cutoffs))
    if not cuts or cuts[0] < 1:
        raise UsageError(f"need cutoffs of at least 1, got {list(cuts)}")
    if not sig:
        raise UsageError("need at least one sigma")

    def per_class(seg: np.ndarray) -> list:
        chosen = seg[selector.mask(seg)]
        norms = selector.norms(chosen)
        mult = selector.place_multiplicity(chosen).astype(np.float64)
        rows = []
        for s in sig:
            x = norms ** (-(s - delta))
            rows.append(mult * np.where(x < 1.0, -np.log1p(-np.clip(x, None, 1.0 - 1e-15)), np.inf))
        return [(norms, rows)]

    sums = prefix_sums(selector.max_prime_for_norm(cuts[-1]), cuts, per_class)
    partials = {s: tuple(float(v) for v in sums[:, i, 0]) for i, s in enumerate(sig)}
    classifications = {s: "stabilized" if len(v) >= 2 and math.isfinite(v[-1])
                       and abs(v[-1] - v[-2]) < STABILIZE_TOL else "growing"
                       for s, v in partials.items()}
    j = selector.norm_exponent
    return ConvergenceProbe(
        sigmas=sig, cutoffs=cuts,
        partial_sums=partials,
        classifications=classifications,
        delta=float(delta),
        norm_exponent=j,
        analytic_abscissa=(float(delta) + 1.0 / j) if j else None,
    )


# -- bound profiles ----------------------------------------------------------------

_PROFILE_EXPONENTS = {
    "JS": Fraction(1, 2),
    "GJ": Fraction(1, 4),
    "KSh": Fraction(1, 9),
    "KSa-BB": Fraction(7, 64),
}


@dataclass(frozen=True)
class GRCBoundProfile:
    """Named bound |a| < q^exponent toward temperedness."""

    name: str
    exponent: Fraction
    exponent_float: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "exponent_float", float(self.exponent))


def require_degree(n: int) -> None:
    """Refuse a representation degree n < 1."""
    if n < 1:
        raise UsageError(f"degree n = {n} must be at least 1")


def grc_profile(name: str, n: int | None = None) -> GRCBoundProfile:
    """Look up a parameter-size bound profile; LRS(n) depends on the degree."""
    if name in _PROFILE_EXPONENTS:
        return GRCBoundProfile(name=name, exponent=_PROFILE_EXPONENTS[name])
    if name == "LRS":
        if n is None:
            raise UnknownProfile("LRS profile needs the degree n")
        require_degree(n)
        return GRCBoundProfile(name=f"LRS({n})",
                               exponent=Fraction(1, 2) - Fraction(1, n * n + 1))
    if name.startswith("LRS(") and name.endswith(")"):
        try:
            return grc_profile("LRS", int(name[4:-1]))
        except ValueError:
            pass
    raise UnknownProfile(f"unknown profile {name!r}; choose from "
                         f"{sorted(_PROFILE_EXPONENTS)} or LRS(n)")
