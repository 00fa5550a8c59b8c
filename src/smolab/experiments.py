"""Experiment drivers: coefficient comparison, pole-order proxies, ratio
consistency, sparse-set summability, and abscissa arithmetic for inert towers.

None of these compute limits; each measures a documented finite proxy (a
slope over coupled cutoffs, a truncated product, a congruence scan) and
reports the proxy together with its parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (DegreeMismatch, InfeasibleEpsilon, NotNested,
                     NotPrimeDegree, PoleHit, UsageError)
# log_expansion, prime_array, iter_prime_segments and segment_map are not called
# here; perfbench/tracer.py wraps them under these names
from .euler import (GRCBoundProfile, ConvergenceProbe, EulerProduct, convergence_probe,
                    log_expansion, parameter_sums, require_degree, scan_primes)
from .fields import FieldSpec
from .hecke import require_size_bound
from .selectors import DegreeSelector, ExplicitList, PrimeSelector
from .sieve import (PRIME_LIMIT, class_sums, is_prime, iter_prime_segments, prefix_sums,
                    prime_array, prime_stream, restrict, segment_map)

COEFF_EQ_TOL = 1e-9
PROBE_PRIMES = (2, 3, 5, 7, 11, 101, 1009)
DEFAULT_EPS_GRID = (Fraction(1, 12), Fraction(1, 10), Fraction(1, 8))
CUTOFF_COUPLING = 1.5
CUTOFF_CAP = 10**8
SLOPE_MARGIN = 0.1  # slack of the tempered bound's slope test
SHOWN_DISAGREEMENTS = 200  # disagreeing primes a comparison report lists
SHOWN_COUNTEREXAMPLES = 50  # counterexamples a tower report lists
Z_RATIO_SCAN_LIMIT = 10**4  # primes a four-way ratio scans up to
Z_RATIO_POWERS = 40  # power sums m = 1..this in the ratio's log series

# annotation thresholds quoted in every comparison report
REFINED_SMO_DENSITY = Fraction(1, 8)
NON_DIHEDRAL_DENSITY = Fraction(1, 4)


def conjectural_density_threshold(n: int) -> Fraction:
    return Fraction(1, 2 * n * n)


# -- local comparison -------------------------------------------------------------


@dataclass(frozen=True)
class AgreementReport:
    labels: tuple[str, str]
    scan_limit: int
    compared: int
    disagreements: int
    disagreement_primes: tuple[int, ...]  # the first SHOWN_DISAGREEMENTS only
    first_disagreement: int | None
    disagreement_density: float
    annotations: dict = field(default_factory=dict)


def compare_local(A: EulerProduct, B: EulerProduct, scan_limit: int) -> AgreementReport:
    """Scan the unramified primes of both universes for unequal normalized coefficients.

    Disagreements are counted in full; only the first SHOWN_DISAGREEMENTS
    primes are kept, so memory does not grow with the scan.
    """
    if A.degree != B.degree:
        raise DegreeMismatch(f"degrees {A.degree} != {B.degree}")
    limit, universe, ramified = scan_primes(scan_limit, [A, B])
    compared = disagreements = 0
    shown: list[int] = []
    for seg in prime_stream(limit, universe, ramified):
        compared += len(seg)
        gap = np.abs(A.coefficient_array(seg) - B.coefficient_array(seg))
        bad = seg[gap > COEFF_EQ_TOL]
        disagreements += len(bad)
        shown.extend(bad[:SHOWN_DISAGREEMENTS - len(shown)].tolist())
    n = A.degree
    return AgreementReport(
        labels=(A.label, B.label),
        scan_limit=limit,
        compared=compared,
        disagreements=disagreements,
        disagreement_primes=tuple(shown),
        first_disagreement=shown[0] if shown else None,
        disagreement_density=(disagreements / compared) if compared else 0.0,
        annotations={
            "refined_density_threshold": REFINED_SMO_DENSITY,
            "non_dihedral_density_threshold": NON_DIHEDRAL_DENSITY,
            "general_degree_threshold": conjectural_density_threshold(n),
        },
    )


# -- pole-order proxy ---------------------------------------------------------------


@dataclass(frozen=True)
class PoleOrderEstimate:
    eps_grid: tuple[float, ...]
    cutoffs: tuple[int, ...]
    values: tuple[float, ...]  # truncated log-sums at s = 1 + eps
    slope: float
    slope_interval: tuple[float, float]
    data_limited: bool
    diagnostics: dict = field(default_factory=dict)


def _coupled_cutoff(eps: float) -> int:
    return min(CUTOFF_CAP, math.ceil(math.exp(CUTOFF_COUPLING / eps)))


def pole_order_estimate(coefficient_fn, selector: PrimeSelector, eps_grid=None,
                        data_limit: int | None = None, exclude: frozenset[int] = frozenset(),
                        workers: int | None = None) -> PoleOrderEstimate:
    """Slope of truncated sums sum_{p in S} c_p p^-(1+eps) against log(1/eps).

    Cutoffs are coupled to eps as min(10^8, exp(1.5/eps)); an eps whose
    minimal honest cutoff exp(1/eps) lies above the prime cap PRIME_LIMIT is
    rejected.  A first-order pole shows up as slope ~ density of S.
    ``coefficient_fn`` maps a prime array to a weight array (|coefficient|^2
    for self-pairings); None means weight 1, the plain zeta shape.  With
    weight 1 each sum is one ``class_sums`` call at its cutoff and exponent;
    weighted sums are one ``prefix_sums`` walk, each eps reading its own row
    at its own cutoff; ``exclude`` leaves its primes out of weighted sums only.
    """
    eps_values = sorted((float(e) for e in (eps_grid or DEFAULT_EPS_GRID)), reverse=True)
    if len(set(eps_values)) < 3:
        raise UsageError("slope fit needs at least 3 distinct epsilon points")
    for eps in eps_values:
        if eps <= 0 or math.exp(1.0 / eps) > PRIME_LIMIT:
            raise InfeasibleEpsilon(
                f"eps={eps}: coupled cutoff exp(1/eps) exceeds the sieve limit")
    cutoffs = [_coupled_cutoff(e) for e in eps_values]
    data_limited = False
    if data_limit is not None:
        data_limited = any(c > data_limit for c in cutoffs)
        cutoffs = [min(c, data_limit) for c in cutoffs]
    exponents = np.array([1.0 + e for e in eps_values])
    if coefficient_fn is None:
        classes = lambda seg: np.where(selector.mask(seg), 0, -1)
        sums = np.array([class_sums([cut], 1, classes, selector.congruence_modulus(),
                                    exponents=[e], workers=workers)[0, 0, 0]
                         for cut, e in zip(cutoffs, exponents.tolist())])
    else:
        def per_class(seg: np.ndarray) -> list:
            chosen = restrict(seg, selector, exclude)
            weights = np.asarray(coefficient_fn(chosen), dtype=np.float64)
            pf = chosen.astype(np.float64)
            return [(chosen, [weights * pf ** (-e) for e in exponents])]

        sums = prefix_sums(max(cutoffs), cutoffs, per_class, workers)[:, :, 0].diagonal()
    L = np.array([math.log(1.0 / e) for e in eps_values])
    slope, stderr = _least_squares_slope(L, sums)
    return PoleOrderEstimate(
        eps_grid=tuple(eps_values),
        cutoffs=tuple(int(c) for c in cutoffs),
        values=tuple(float(v) for v in sums),
        slope=slope,
        slope_interval=(slope - 2.0 * stderr, slope + 2.0 * stderr),
        data_limited=data_limited,
        diagnostics={"selector": selector.describe(),
                     "coupling": CUTOFF_COUPLING, "cap": CUTOFF_CAP},
    )


def _least_squares_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(n - 2, 1)
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx)
    return slope, stderr


# -- tempered self-pairing bound -------------------------------------------------------


@dataclass(frozen=True)
class TemperedBoundReport:
    label: str
    selector: str
    density: Fraction
    bound: float
    slope: float  # estimate.slope
    estimate: PoleOrderEstimate
    passed: bool
    tempered_excess: float
    warnings: tuple[str, ...]
    annotations: dict = field(default_factory=dict)


def tempered_bound_check(A: EulerProduct, selector: PrimeSelector,
                         workers: int | None = None) -> TemperedBoundReport:
    """Measure the self-pairing log growth over S against n^2 * density(S).

    The leading coefficient of the self-pairing at p is |coefficient(p)|^2
    (conjugated convention), so the slope of its restricted log-sums should
    not exceed n^2 d(S); temperedness failures demote to warnings unless a
    parameter breaks the square-root wall.
    """
    density = selector.analytic_density()
    if density is None:
        raise UsageError("selector needs an exact analytic density for the bound")
    probe_primes = restrict(PROBE_PRIMES, A.universe, exclude=A.ramified)
    require_size_bound(A, probe_primes)
    excess = A.max_parameter_excess(probe_primes)
    warnings = list(A.warnings)
    if excess > 1e-6:
        warnings.append(f"parameters off the unit circle by {excess:.3g}")

    def weights(primes: np.ndarray) -> np.ndarray:
        return np.abs(A.coefficient_array(primes)) ** 2

    limit, universe, ramified = scan_primes(CUTOFF_CAP, [A], selector)
    estimate = pole_order_estimate(weights, universe, data_limit=limit, exclude=ramified,
                                   workers=workers)
    n = A.degree
    bound = float(n * n * density)
    return TemperedBoundReport(
        label=A.label,
        selector=selector.describe(),
        density=density,
        bound=bound,
        slope=estimate.slope,
        estimate=estimate,
        passed=estimate.slope <= bound + SLOPE_MARGIN,
        tempered_excess=excess,
        warnings=tuple(warnings),
        annotations={
            "refined_density_threshold": REFINED_SMO_DENSITY,
            "non_dihedral_density_threshold": NON_DIHEDRAL_DENSITY,
            "general_degree_threshold": conjectural_density_threshold(n),
        },
    )


# -- ratio consistency ------------------------------------------------------------------


@dataclass(frozen=True)
class ZRatioReport:
    labels: tuple[str, str]
    selector: str
    s_grid: tuple[float, ...]
    direct_values: tuple[float, ...]
    log_values: tuple[float, ...]
    max_discrepancy: float
    positive_type_combined: bool
    primes_used: int


def z_ratio(A: EulerProduct, B: EulerProduct, selector: PrimeSelector,
            s_grid) -> ZRatioReport:
    """Truncated four-way ratio over the selected primes, computed two ways.

    Direct path: product over p in S of
    eval(AxconjA) * eval(BxconjB) / (eval(AxconjB) * eval(BxconjA)).
    Log path: exponential of the corresponding signed power-sum series; the
    m-th power sum of X x conj(Y) at p is P_X(m) conj(P_Y(m)), where P_X(m)
    sums the m-th powers of X's parameters.
    The two must agree to high precision; their combined (all product)
    series is also checked for nonnegative log coefficients.  Each array
    of the prime stream is computed over its primes and the s grid, and the
    results are reduced in stream order.
    """
    if A.degree != B.degree:
        raise DegreeMismatch(f"degrees {A.degree} != {B.degree}")
    s_values = [float(s) for s in s_grid]
    if any(s <= 1.0 for s in s_values):
        raise UsageError("ratio grid must have s > 1")
    exponents = -np.array(s_values)
    direct = np.ones(len(s_values), dtype=np.complex128)
    log_sum = np.zeros(len(s_values), dtype=np.complex128)
    combined_min_coeff = 0.0
    primes_used = 0
    for seg in prime_stream(*scan_primes(Z_RATIO_SCAN_LIMIT, [A, B], selector)):
        primes_used += len(seg)
        sa, sb = A.satake_array(seg), B.satake_array(seg)
        x = seg.astype(np.float64)[:, None] ** exponents  # p^-s, one row per prime
        ratio = _quotient(_paired_poly(sa, sb, x) * _paired_poly(sb, sa, x),
                          _paired_poly(sa, sa, x) * _paired_poly(sb, sb, x))
        direct *= ratio.prod(axis=0)
        power_a, power_b, x_m = sa.copy(), sb.copy(), x.copy()
        for m in range(1, Z_RATIO_POWERS + 1):
            pa, pb = parameter_sums(power_a), parameter_sums(power_b)
            aa, bb = pa * pa.conj(), pb * pb.conj()
            ab, ba = pa * pb.conj(), pb * pa.conj()
            combined = aa + bb + ab + ba
            combined_min_coeff = min(combined_min_coeff, float(combined.real.min()) / m)
            log_sum += ((aa + bb - ab - ba)[:, None] / m * x_m).sum(axis=0)
            power_a *= sa
            power_b *= sb
            x_m *= x
    logs = np.exp(log_sum)
    return ZRatioReport(
        labels=(A.label, B.label),
        selector=selector.describe(),
        s_grid=tuple(s_values),
        direct_values=tuple(direct.real.tolist()),
        log_values=tuple(logs.real.tolist()),
        max_discrepancy=float(np.abs(direct - logs).max(initial=0.0)),
        positive_type_combined=combined_min_coeff >= -1e-9,
        primes_used=primes_used,
    )


def _paired_poly(sa: np.ndarray, sb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """prod_ij (1 - a_i conj(b_j) x) for each prime (row) and s (column).

    This is 1 / eval of the paired local factor A x conj(B) at x = p^-s;
    raises PoleHit where a factor vanishes, as ``eval_local`` does.
    """
    params = (sa[:, :, None] * sb.conj()[:, None, :]).reshape(len(sa), -1)
    factors = 1.0 - params[:, None, :] * x[:, :, None]
    near = np.abs(factors) < 1e-12
    if near.any():
        raise PoleHit(int(np.argwhere(near)[0][2]))
    return factors.prod(axis=2)


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den as num conj(den) / |den|^2 in real arithmetic.

    Exactly 1 wherever num and den are equal, which keeps the ratio of
    identical sources exactly 1 (numpy's complex division multiplies by a
    rounded reciprocal instead).
    """
    norm = den.real * den.real + den.imag * den.imag
    out = np.empty_like(num)
    out.real = (num.real * den.real + num.imag * den.imag) / norm
    out.imag = (num.imag * den.real - num.real * den.imag) / norm
    return out


# -- sparse-set summability --------------------------------------------------------------


@dataclass(frozen=True)
class SummabilityReport:
    verdict: str  # "summable" | "divergent" | "undecidable"
    exponent: Fraction | None
    test_exponent: Fraction | None  # 2j/(n^2+1), compared against 1
    cutoffs: tuple[int, ...]
    partial_sums: tuple[float, ...]
    selector: str


def rajan_criterion(selector: PrimeSelector, n: int,
                    cutoffs=(10**4, 10**5, 10**6, 10**7)) -> SummabilityReport:
    """Decide sum over S of q^(-2/(n^2+1)) by the exponent test, with evidence.

    For degree-structured selectors (norms q = p^j) the sum converges iff
    2j/(n^2+1) > 1; explicit lists are trivially summable.  Arbitrary
    predicates get partial sums only and an "undecidable" verdict.  The
    partial sums are one ``prefix_sums`` walk keyed by the norms.
    """
    require_degree(n)
    exponent = Fraction(2, n * n + 1)
    cuts = tuple(int(c) for c in sorted(cutoffs))
    if cuts and cuts[0] < 1:
        raise UsageError(f"need cutoffs of at least 1, got {list(cuts)}")
    j = selector.norm_exponent

    def per_class(seg: np.ndarray) -> list:
        chosen = seg[selector.mask(seg)]
        norms = selector.norms(chosen)
        return [(norms, [selector.place_multiplicity(chosen) * norms ** (-float(exponent))])]

    sums = prefix_sums(selector.max_prime_for_norm(max(cuts, default=1)), cuts, per_class)
    partials = tuple(float(v) for v in sums[:, 0, 0])
    if isinstance(selector, ExplicitList):
        verdict = "summable"
        test = None
    elif j is not None:
        test = exponent * j
        verdict = "summable" if test > 1 else "divergent"
    else:
        test = None
        verdict = "undecidable"
    return SummabilityReport(verdict=verdict, exponent=exponent, test_exponent=test,
                             cutoffs=cuts, partial_sums=partials,
                             selector=selector.describe())


# -- inert-prime abscissa arithmetic --------------------------------------------------------


@dataclass(frozen=True)
class InertExperimentReport:
    fieldspec: str
    n: int
    p: int
    profile: GRCBoundProfile
    pair_bound: Fraction          # 1 - 2/(n^2+1) + 1/p style bound: 2*delta + 1/p
    pair_bound_float: float
    sufficient: bool              # pair_bound < 1
    variant_delta: Fraction | None
    variant_bound: Fraction | None  # 2*delta + 1/p for a supplied delta
    variant_bound_float: float | None
    variant_sufficient: bool | None  # variant_bound < 1/2
    probe: ConvergenceProbe


def inert_experiment(fs: FieldSpec, n: int, profile: GRCBoundProfile,
                     variant_delta: Fraction | None = None,
                     probe_cutoffs=(10**5, 10**6, 10**7)) -> InertExperimentReport:
    """Abscissa bookkeeping for the inert primes of a prime-degree cyclic field.

    The self-pairing of a degree-n source with parameters below q^delta has
    local poles left of 2*delta, so its product over the inert primes
    (degree p, norms p^p) converges for Re(s) > 2*delta + 1/p.  The report
    states whether that bound clears Re(s) = 1, optionally the analogous
    half-plane check 2*delta' + 1/p vs 1/2 for a supplied delta', and runs
    the worst-case probe on the actual inert selector as corroboration.
    """
    require_degree(n)
    p = fs.degree
    if not is_prime(p):
        raise NotPrimeDegree(f"field degree {p} is not prime")
    delta = profile.exponent
    pair_bound = 2 * delta + Fraction(1, p)
    variant_bound = None
    variant_ok = None
    if variant_delta is not None:
        variant_delta = Fraction(variant_delta)
        variant_bound = 2 * variant_delta + Fraction(1, p)
        variant_ok = variant_bound < Fraction(1, 2)
    inert = DegreeSelector(fs, p)
    two_delta = float(2 * delta)
    edge = two_delta + 1.0 / p
    probe_sigmas = (round(edge + 0.05, 6), round(max(edge - 0.05, two_delta + 1e-3), 6))
    probe = convergence_probe(inert, two_delta, probe_sigmas, probe_cutoffs)
    return InertExperimentReport(
        fieldspec=fs.label, n=n, p=p, profile=profile,
        pair_bound=pair_bound,
        pair_bound_float=float(pair_bound),
        sufficient=pair_bound < 1,
        variant_delta=variant_delta,
        variant_bound=variant_bound,
        variant_bound_float=float(variant_bound) if variant_bound is not None else None,
        variant_sufficient=variant_ok,
        probe=probe,
    )


# -- tower residue degrees ---------------------------------------------------------------------


@dataclass(frozen=True)
class TowerReport:
    subfield: str
    field: str
    p: int
    m: int
    scan_limit: int
    checked: int
    counterexamples: tuple[int, ...]  # the first SHOWN_COUNTEREXAMPLES only
    examples: tuple[tuple[int, int, int], ...]  # (prime, degree below, degree above)


def tower_degree_check(F: FieldSpec, K: FieldSpec, scan_limit: int = 10**5) -> TowerReport:
    """Verify that degree-p primes of the subfield have degree p^m above.

    F and K are congruence data over the rationals with F inside K; the
    chain must be cyclic of prime-power degree p^m with [F:Q] = p.  Every
    unramified prime up to the scan limit whose residue degree in F equals
    p must have residue degree p^m in K.  The first SHOWN_COUNTEREXAMPLES
    primes that fail are kept.
    """
    if not K.contains(F):
        raise NotNested(f"{K.label} does not contain {F.label}")
    p = F.degree
    if not is_prime(p):
        raise NotPrimeDegree(f"subfield degree {p} is not prime")
    if K.degree % p:
        raise NotNested("field degrees are not nested")
    m = 1
    while p**m < K.degree:
        m += 1
    if p**m != K.degree:
        raise NotNested(f"extension degree {K.degree} is not a power of {p}")
    if not K.cyclic:
        raise NotNested(f"{K.label} is not cyclic over the rationals")
    checked = 0
    bad: list[int] = []
    samples: list[tuple[int, int, int]] = []
    upstairs = DegreeSelector(K, p**m)
    for below in prime_stream(scan_limit, DegreeSelector(F, p),
                              exclude=F.ramified_primes() | K.ramified_primes()):
        checked += len(below)
        lifted = upstairs.mask(below)
        bad.extend(below[~lifted][:SHOWN_COUNTEREXAMPLES - len(bad)].tolist())
        samples.extend((q, p, p**m) for q in below[lifted][:5 - len(samples)].tolist())
    return TowerReport(subfield=F.label, field=K.label, p=p, m=m,
                       scan_limit=scan_limit, checked=checked,
                       counterexamples=tuple(bad), examples=tuple(samples))
