"""Degree-n coefficient sources: eigenvalue files and synthetic parameter data.

A loaded weight-k eigenvalue file is renormalized so the two local
parameters at a good prime p satisfy a + b = a_p / p^((k-1)/2) and ab = 1.
Synthetic sources draw parameters from seed-determined angles, so any prime
has data and runs are reproducible; seeding goes through strings, which
hash stably across processes.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import DuplicatePrime, NonPrimeRow, NotTempered, ParseError
from .euler import EulerProduct, LocalFactor, rankin_selberg_local
from .selectors import AllPrimes, ExplicitList, PrimeSelector


@dataclass(frozen=True)
class RepresentationData:
    """A degree-n source of local parameters, file-backed or synthetic."""

    label: str
    degree: int
    coefficient_fn: Callable[[int], float | complex] = field(compare=False)
    satake_fn: Callable[[int], tuple[complex, ...]] = field(compare=False)
    ramified: frozenset[int] = frozenset()
    support: tuple[int, ...] | None = None  # explicit prime list, or None for all
    support_limit: int | None = None
    normalization: str = "unitary"
    warnings: tuple[str, ...] = ()

    def coefficient(self, p: int) -> complex:
        return self.coefficient_fn(int(p))

    def satake(self, p: int) -> tuple[complex, ...]:
        return self.satake_fn(int(p))

    def local_factor(self, p: int) -> LocalFactor:
        return LocalFactor(q=int(p), alphas=self.satake(int(p)), degree=self.degree)

    def universe(self) -> PrimeSelector:
        if self.support is not None:
            return ExplicitList(self.support)
        return AllPrimes()

    def euler_product(self, label_suffix: str = "") -> EulerProduct:
        return EulerProduct(degree=self.degree,
                            factor_source=self.local_factor,
                            universe=self.universe(),
                            ramified=self.ramified,
                            label=self.label + label_suffix,
                            support_limit=self.support_limit)

    def self_rankin_selberg(self, conjugate: bool = True) -> EulerProduct:
        """Pairing of the source with itself: parameters {a_i c(a_j)} at each p."""

        def source(p: int) -> LocalFactor:
            f = self.local_factor(p)
            return rankin_selberg_local(f, f, conjugate_second=conjugate)

        return EulerProduct(degree=self.degree**2, factor_source=source,
                            universe=self.universe(), ramified=self.ramified,
                            label=f"{self.label} x conj({self.label})",
                            support_limit=self.support_limit)

    def max_parameter_excess(self, primes) -> float:
        """max over given primes of |a_i| measured against 1 (tempered = 0)."""
        worst = 0.0
        for p in primes:
            for a in self.satake(int(p)):
                worst = max(worst, abs(abs(a) - 1.0))
        return worst


def _unitary_pair(lam: complex) -> tuple[complex, complex]:
    """Roots of x^2 - lam x + 1; unit-circle conjugates when |lam| <= 2."""
    disc = lam * lam - 4.0
    root = cmath.sqrt(disc)
    a = (lam + root) / 2.0
    b = (lam - root) / 2.0
    return a, b


def load_hecke(path: str | Path, weight: int, label: str | None = None) -> RepresentationData:
    """Load a ``p,a_p`` CSV of eigenvalues and renormalize to unit products.

    Rows must be ascending in p with no duplicates; entries breaking the
    |a_p| <= 2 p^((k-1)/2) size bound are kept but recorded as warnings.
    """
    text = Path(path).read_text()
    return parse_hecke_text(text, weight, label=label or Path(path).stem)


def parse_hecke_text(text: str, weight: int, label: str = "hecke") -> RepresentationData:
    from .sieve import is_prime

    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if rows and rows[0] and rows[0][0].strip().lower() == "p":
        rows = rows[1:]
    coeffs: dict[int, float] = {}
    warnings: list[str] = []
    last_p = 0
    for row in rows:
        if len(row) < 2:
            raise ParseError(f"expected 'p,a_p' columns, got {row!r}")
        try:
            p = int(row[0])
            a_p = float(row[1])
        except ValueError:
            raise ParseError(f"bad numeric row {row!r}")
        if not is_prime(p):
            raise NonPrimeRow(f"row index {p} is not prime")
        if p in coeffs:
            raise DuplicatePrime(f"prime {p} appears twice")
        if p < last_p:
            raise ParseError(f"rows out of order at p={p}")
        last_p = p
        bound = 2.0 * p ** ((weight - 1) / 2.0)
        if abs(a_p) > bound + 1e-9:
            warnings.append(f"size bound exceeded at p={p}: |{a_p}| > {bound:.6g}")
        coeffs[p] = a_p
    support = tuple(sorted(coeffs))
    half = (weight - 1) / 2.0

    def normalized(p: int) -> float:
        return coeffs[p] / p**half

    def satake(p: int) -> tuple[complex, complex]:
        return _unitary_pair(normalized(p))

    return RepresentationData(
        label=label, degree=2,
        coefficient_fn=normalized,
        satake_fn=satake,
        support=support,
        support_limit=support[-1] if support else 0,
        normalization=f"a_p / p^({weight - 1}/2), parameter product 1",
        warnings=tuple(warnings),
    )


def synthetic_tempered(seed: int, degree: int = 2, label: str | None = None) -> RepresentationData:
    """Unit-circle parameters in conjugate pairs with seed-determined angles."""

    def satake(p: int) -> tuple[complex, ...]:
        out: list[complex] = []
        for i in range(degree // 2):
            theta = random.Random(f"tempered:{seed}:{i}:{p}").uniform(0.0, math.pi)
            out.append(cmath.exp(1j * theta))
            out.append(cmath.exp(-1j * theta))
        if degree % 2:
            sign = random.Random(f"tempered-sign:{seed}:{p}").choice((1.0, -1.0))
            out.append(complex(sign))
        return tuple(out)

    def coefficient(p: int) -> complex:
        return sum(satake(p))

    return RepresentationData(
        label=label or f"synthetic-tempered(seed={seed})",
        degree=degree, coefficient_fn=coefficient, satake_fn=satake,
        normalization="unit-circle conjugate pairs",
    )


def synthetic_with_profile(seed: int, profile, degree: int = 2,
                           label: str | None = None) -> RepresentationData:
    """Parameters with |a| up to q^delta for the given bound profile.

    Pairs are (a, 1/conj(a)) so the parameter product stays 1 while the
    modulus wanders inside the allowed window.
    """
    delta = float(profile.exponent)

    def satake(p: int) -> tuple[complex, ...]:
        out: list[complex] = []
        for i in range(degree // 2):
            rng = random.Random(f"profile:{seed}:{i}:{p}")
            theta = rng.uniform(0.0, math.pi)
            t = delta * rng.random()
            radius = p**t
            a = radius * cmath.exp(1j * theta)
            out.append(a)
            out.append(1.0 / a.conjugate())
        if degree % 2:
            out.append(complex(1.0))
        return tuple(out)

    def coefficient(p: int) -> complex:
        return sum(satake(p))

    return RepresentationData(
        label=label or f"synthetic-{profile.name}(seed={seed})",
        degree=degree, coefficient_fn=coefficient, satake_fn=satake,
        normalization=f"|a| <= q^{profile.exponent}, parameter product 1",
    )


def require_size_bound(rep: RepresentationData, primes) -> None:
    """Hard failure if any parameter breaks the square-root size wall."""
    for p in primes:
        p = int(p)
        for a in rep.satake(p):
            if abs(a) > p**0.5 + 1e-9:
                raise NotTempered(
                    f"{rep.label}: |parameter| = {abs(a):.6g} > sqrt({p}) at p={p}")
