"""Exception hierarchy shared by all smolab modules.

Every error carries a short machine-readable ``code`` so the CLI can print
``code: message`` lines and map domain failures to exit status 1.
"""

from __future__ import annotations


class SmolabError(Exception):
    code = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        return base if base else self.code


# -- group construction / character tables ---------------------------------

class InvalidPermutation(SmolabError):
    code = "invalid-permutation"


class ClosureExceedsLimit(SmolabError):
    code = "closure-exceeds-limit"


class UnknownCatalogEntry(SmolabError):
    code = "unknown-catalog-entry"


class NumericalDegeneracy(SmolabError):
    code = "numerical-degeneracy"


class ClassMismatch(SmolabError):
    code = "class-mismatch"


class DegreeMismatch(SmolabError):
    code = "degree-mismatch"


class LemmaViolation(SmolabError):
    """Agreement above the forcing threshold but the characters differ.

    Never expected on valid data; signals a bug or numerical failure.
    """

    code = "lemma-violation"


# -- primes, fields, selectors ----------------------------------------------

class LimitExceeded(SmolabError):
    code = "limit-exceeded"


# -- local factors / Euler products ------------------------------------------

class PoleHit(SmolabError):
    code = "pole-hit"

    def __init__(self, index: int):
        super().__init__(f"evaluation point is a pole of parameter {index}")
        self.index = index


class NormMismatch(SmolabError):
    code = "norm-mismatch"


class NotPositiveType(SmolabError):
    code = "not-positive-type"


class UnknownProfile(SmolabError):
    code = "unknown-profile"


# -- coefficient data ----------------------------------------------------------

class ParseError(SmolabError):
    code = "parse-error"


class NonPrimeRow(SmolabError):
    code = "non-prime-row"


class DuplicatePrime(SmolabError):
    code = "duplicate-prime"


# -- experiments ----------------------------------------------------------------

class InfeasibleEpsilon(SmolabError):
    code = "infeasible-epsilon"


class NotTempered(SmolabError):
    code = "not-tempered"


class NotPrimeDegree(SmolabError):
    code = "not-prime-degree"


class NotNested(SmolabError):
    code = "not-nested"


# -- reports / CLI ----------------------------------------------------------------

class IoError(SmolabError):
    code = "io-error"


class UsageError(SmolabError, ValueError):
    """A bad argument value; also a ``ValueError`` for library callers."""

    code = "usage-error"
