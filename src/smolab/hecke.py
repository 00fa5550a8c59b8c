"""Degree-n coefficient sources: eigenvalue files and synthetic parameter data.

Every source answers for an array of primes at once: ``satake_array(primes)``
gives the (len, degree) complex local parameters and ``coefficient_array``
their normalized traces.  The one-prime methods ``satake``, ``coefficient``
and ``local_factor`` are one-element views of the same arrays, so there is
a single implementation of each source.

A source with no coefficient function of its own (the synthetic ones) takes
its traces as parameter sums, and the z-ratio takes its power sums the same
way: ``parameter_sums`` forms them as column adds into a +0 array, one
column at a time.  Up to three columns that is numpy's own order for
``sum(axis=1)``: the same bits, the sign of a zero part included (a NaN
part is a NaN in both, its sign left open by IEEE 754).  Wider sources,
which only library code builds, get the same left fold, where numpy would
sum pairwise in blocks.  On the (78498, 2) parameters of the primes to 1e6
the adds took 0.30 ms against 1.9 ms for the short-axis reduction (2-vCPU
x86-64 VM, numpy 2.4.6).

A loaded weight-k eigenvalue file is renormalized so the two local
parameters at a good prime p satisfy a + b = a_p / p^((k-1)/2) and ab = 1;
lookups index the sorted prime column, whose ``ExplicitList`` is the source's
``universe``.  Synthetic sources have ``AllPrimes()`` and are counter-based:
each random quantity at p is drawn from the splitmix64 hash of (seed, domain
tag, parameter index, p), so any prime has data, a prime's values do not
depend on which other primes are asked for, and runs are reproducible across
processes and platforms.  Seeds are reduced mod 2**64 first, so negative and
large seeds are accepted.

Eigenvalue files, and the Satake files of ``cli``, are read by one columnar
reader, ``numeric_columns``: one ``np.loadtxt`` call gives int64 and float64
columns, which go straight into the array checks (prime, ascending, q a
power of p).  It reads only a text that ``csv.reader`` and ``int()`` and
``float()`` per cell would read to the same values: printable ASCII without
'"', since ``loadtxt`` strips a '\\x1c' around a number that ``float()``
refuses, and it leaves every other text, and every cell it does not read
('1_0', Arabic-Indic digits), to the row reader.  An int cell spelled as a
float ('2.9', '3.0') is not read either: numpy from 1.23 until that
deprecation expired truncates it with only a DeprecationWarning, which the
reader turns into an error.  When it declines, or the array checks find any
fault, the row reader reads the text again, and the first faulty row raises
with the row reader's message, so every accepted text gives the same bits
and every faulty one the same error either way.  On the benchmark's
2262-row files (best of 9 x 20 loads, 2-vCPU x86-64 VM, numpy 2.4.6)
``parse_hecke_text`` took 1.3 ms against 3.0 ms by rows, and the Satake
load 3.8 ms against 9.9 ms.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DuplicatePrime, NonPrimeRow, NotTempered, ParseError
from .euler import EulerProduct, LocalFactor
from .selectors import AllPrimes, ExplicitList, PrimeSelector
from .sieve import is_prime_array

ArrayFn = Callable[[np.ndarray], np.ndarray]


def parameter_sums(params: np.ndarray) -> np.ndarray:
    """Row sums of a (len, degree) parameter array, as column adds into +0.

    One column at a time from +0 is numpy's own order for ``sum(axis=1)`` up
    to three columns, and a -0.0 part in every column sums to +0.0 as there.
    """
    total = np.zeros(len(params), dtype=np.complex128)
    for column in params.T:
        total += column
    return total


# printable ASCII but '"': in a text of these and "\n", csv.reader's row is
# line.split(","), and np.loadtxt reads a number cell as int() and float() do
_PLAIN_BYTES = bytes(c for c in range(0x20, 0x7F) if c != ord('"'))


def numeric_columns(text: str, ints: int,
                    header: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    r"""(rows, ints) int64 and (rows, rest) float64 blocks of a CSV text, by
    one ``np.loadtxt`` call, or None when the text needs a row reader.

    The first line is left out when its first cell, stripped and lowercased,
    is in ``header``.  Every other line that is not blank is one row, of
    ``ints`` int columns and at least one float column.  The text is read
    only when a row reader (``csv.reader`` then ``int()`` and ``float()``
    per cell) would give the same rows and values; otherwise the answer is
    None:

    - a character outside printable ASCII and "\n", or a '"'.  ``loadtxt``
      strips the whitespace of ``str.isspace``, such as '\x1c', around a
      number, where ``int()`` and ``float()`` do not;
    - no rows, a blank first line, or rows of unequal width.  Other blank
      lines are skipped, as both loaders' row readers drop blank rows;
    - a cell ``loadtxt`` does not read, or an int beyond int64.  ``int()``
      and ``float()`` read some of them, such as '1_0'.  An int cell that is
      a float, such as '2.9' or '3.0', counts as not read: numpy from 1.23
      until that deprecation expired truncates it with a DeprecationWarning,
      which is made an error here, where ``int()`` refuses it.
    """
    rest = text.encode().translate(None, _PLAIN_BYTES)
    if rest.count(b"\n") != len(rest):
        return None
    head, _, body = text.partition("\n")
    if head.split(",", 1)[0].strip().lower() in header:
        text = body
    width = text.partition("\n")[0].count(",") + 1  # 1 for no rows or a blank first line
    if width <= ints:
        return None
    dtype = np.dtype([("ints", np.int64, (ints,)), ("floats", np.float64, (width - ints,))])
    try:
        with warnings.catch_warnings():
            # numpy from 1.23 until that deprecation expired reads an int cell
            # such as '2.9' as a float and truncates it, warning only by a
            # DeprecationWarning that default filters hide in library code
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",", comments=None,
                               quotechar=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    return table["ints"], table["floats"]


@dataclass(frozen=True)
class RepresentationData:
    """A degree-n source of local parameters, file-backed or synthetic.

    ``satake_fn`` maps an int64 prime array to its (len, degree) complex
    parameters; ``coefficient_fn``, when given, maps it to the normalized
    coefficients (otherwise they are the parameter sums).
    """

    label: str
    degree: int
    satake_fn: ArrayFn = field(compare=False)
    coefficient_fn: ArrayFn | None = field(default=None, compare=False)
    ramified: frozenset[int] = frozenset()
    universe: PrimeSelector = AllPrimes()
    normalization: str = "unitary"
    warnings: tuple[str, ...] = ()

    def satake_array(self, primes) -> np.ndarray:
        return self.satake_fn(np.asarray(primes, dtype=np.int64))

    def coefficient_array(self, primes) -> np.ndarray:
        primes = np.asarray(primes, dtype=np.int64)
        if self.coefficient_fn is not None:
            return self.coefficient_fn(primes)
        return parameter_sums(self.satake_array(primes))

    def coefficient(self, p: int) -> float | complex:
        return self.coefficient_array([p])[0].item()

    def satake(self, p: int) -> tuple[complex, ...]:
        return tuple(self.satake_array([p])[0].tolist())

    def local_factor(self, p: int) -> LocalFactor:
        return LocalFactor(q=int(p), alphas=self.satake(p), degree=self.degree)

    def self_rankin_selberg(self) -> EulerProduct:
        """Pairing of the source with itself: one place per p, parameters {a_i c(a_j)}."""

        def places(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            a = self.satake_array(primes)
            # a_i-major, as in rankin_selberg_local
            pairs = a[:, :, None] * a.conj()[:, None, :]
            return np.ones((len(primes), 1), dtype=np.int64), pairs.reshape(len(primes), 1, -1)

        return EulerProduct(places=places, universe=self.universe, ramified=self.ramified)

    def max_parameter_excess(self, primes) -> float:
        """max over given primes of |a_i| measured against 1 (tempered = 0)."""
        moduli = _moduli(self.satake_array(primes))
        return float(np.abs(moduli - 1.0).max(initial=0.0))


def _moduli(params: np.ndarray) -> np.ndarray:
    # hypot, as abs() of a Python complex uses, so file-backed moduli keep their bits
    return np.hypot(params.real, params.imag)


def _unitary_pairs(lam: np.ndarray) -> np.ndarray:
    """Roots (a, b) of x^2 - lam x + 1 per real lam, as (len, 2) complex.

    For |lam| < 2 they are the conjugates (lam +- i sqrt(4 - lam^2)) / 2 on
    the unit circle, otherwise the real pair (lam +- sqrt(lam^2 - 4)) / 2.
    Only real arithmetic and a correctly rounded sqrt are used, so the bits
    equal those of the complex formula (lam +- cmath.sqrt(lam^2 - 4)) / 2.
    """
    disc = lam * lam - 4.0
    root = np.sqrt(np.abs(disc))
    inside = disc < 0.0
    out = np.zeros((len(lam), 2), dtype=np.complex128)
    out.real[:, 0] = np.where(inside, lam, lam + root) / 2.0
    out.real[:, 1] = np.where(inside, lam, lam - root) / 2.0
    out.imag[:, 0] = np.where(inside, root, 0.0) / 2.0
    out.imag[:, 1] = np.where(inside, -root, 0.0) / 2.0
    return out


def load_hecke(path: str | Path, weight: int, label: str | None = None) -> RepresentationData:
    """Load a ``p,a_p`` CSV of eigenvalues and renormalize to unit products.

    Rows must be ascending in p with no duplicates; entries breaking the
    |a_p| <= 2 p^((k-1)/2) size bound are kept but recorded as warnings.
    """
    from .report import read  # here, so that import smolab loads no json or hashlib
    return parse_hecke_text(read(path), weight, label=label or Path(path).stem)


def parse_hecke_text(text: str, weight: int, label: str = "hecke") -> RepresentationData:
    """Parse ``p,a_p`` rows; the first faulty row in row order raises.

    The text is read by ``numeric_columns``.  When it reads the text and the
    columns pass the array checks (a_p finite, p prime and ascending), they
    are used as they are; otherwise ``_hecke_rows``, the row reader, reads the
    text again and raises the first fault with its message.
    """
    columns = numeric_columns(text, 1, ("p",))
    if columns is not None:
        ps, values = columns[0][:, 0].copy(), columns[1][:, 0].copy()
        if not (np.isfinite(values).all() and (ps[1:] > ps[:-1]).all()
                and is_prime_array(ps).all()):
            columns = None
    if columns is None:
        ps, values = _hecke_rows(text)
    # Python float pow, once per row: numpy's pow can differ in the last bit,
    # and the file-backed report digests depend on these values
    half = (weight - 1) / 2.0
    scale = np.array([p**half for p in ps.tolist()], dtype=np.float64)
    normalized = values / scale
    warnings = [f"size bound exceeded at p={int(ps[i])}: "
                f"|{float(values[i])}| > {2.0 * scale[i]:.6g}"
                for i in np.flatnonzero(np.abs(values) > 2.0 * scale + 1e-9).tolist()]

    def coefficient(primes: np.ndarray) -> np.ndarray:
        rows = np.searchsorted(ps, primes)
        found = rows < len(ps)
        found[found] = ps[rows[found]] == primes[found]
        if not found.all():
            raise KeyError(f"{label}: no eigenvalue at p={int(primes[~found][0])}")
        return normalized[rows]

    return RepresentationData(
        label=label, degree=2,
        satake_fn=lambda primes: _unitary_pairs(coefficient(primes)),
        coefficient_fn=coefficient,
        universe=ExplicitList(tuple(ps.tolist())),
        normalization=f"a_p / p^({weight - 1}/2), parameter product 1",
        warnings=tuple(warnings),
    )


def _hecke_rows(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The row reader of ``p,a_p`` text: (p, a_p) int64 and float64 columns,
    or the error of the first faulty row in row order.

    Columns and numbers, a_p finite, are checked as rows are read.  The rows
    read before any such fault are then checked prime in one ``is_prime_array``
    pass and checked ascending; within a row, the prime check comes first.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if "".join(row).strip()]  # drop blank rows
    if rows and rows[0] and rows[0][0].strip().lower() == "p":
        rows = rows[1:]
    ps: list[int] = []
    values: list[float] = []
    unreadable = None
    for row in rows:
        if len(row) < 2:
            unreadable = ParseError(f"expected 'p,a_p' columns, got {row!r}")
            break
        try:
            p, a_p = int(row[0]), float(row[1])
        except ValueError:
            unreadable = ParseError(f"bad numeric row {row!r}")
            break
        if not math.isfinite(a_p):
            unreadable = ParseError(f"non-finite a_p in row {row!r}")
            break
        ps.append(p)
        values.append(a_p)
    column = np.array(ps, dtype=object)
    prime = is_prime_array(column)
    faulty = ~prime
    faulty[1:] |= column[1:] <= column[:-1]
    if faulty.any():
        i = int(np.argmax(faulty))
        p = ps[i]
        if not prime[i]:
            raise NonPrimeRow(f"row index {p} is not prime")
        if p in ps[:i]:
            raise DuplicatePrime(f"prime {p} appears twice")
        raise ParseError(f"rows out of order at p={p}")
    if unreadable is not None:
        raise unreadable
    try:
        return np.array(ps, dtype=np.int64), np.array(values, dtype=np.float64)
    except OverflowError:
        raise ParseError(f"prime {ps[-1]} does not fit a 64-bit integer")


# splitmix64 (Steele, Lea and Flood, OOPSLA 2014) on uint64 arrays; numpy
# integer arrays wrap silently on overflow, which is the arithmetic it needs
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# domain tags: each hashed quantity has its own stream
TEMPERED_ANGLE, TEMPERED_SIGN, PROFILE_ANGLE, PROFILE_RADIUS = 1, 2, 3, 4


def _splitmix64(state: np.ndarray) -> np.ndarray:
    z = state + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniform_draws(seed: int, tag: int, count: int, primes) -> np.ndarray:
    """(len(primes), count) doubles in [0, 1), column i hashed from (seed, tag, i, p).

    The key for (seed, tag, i) chains splitmix64 over the three words; the
    draw at p is splitmix64 of the state key + p * gamma (a splitmix64
    sequence indexed by p), and its top 53 bits give the double.
    """
    primes = np.asarray(primes, dtype=np.int64).astype(np.uint64)
    out = np.empty((len(primes), count), dtype=np.float64)
    for i in range(count):
        key = np.array([seed % 2**64], dtype=np.uint64)
        for word in (tag, i):
            key = _splitmix64(key ^ np.uint64(word))
        bits = _splitmix64(key + primes * _GAMMA)
        out[:, i] = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return out


def tempered_angles(seed: int, primes, degree: int = 2) -> np.ndarray:
    """(len(primes), degree // 2) angles in [0, pi) of a synthetic tempered source."""
    return np.pi * uniform_draws(seed, TEMPERED_ANGLE, degree // 2, primes)


def _conjugate_pairs(first: np.ndarray, second: np.ndarray, degree: int) -> np.ndarray:
    """Interleave the columns (a_0, b_0, a_1, b_1, ...), leaving a last column of 1s."""
    out = np.ones((len(first), degree), dtype=np.complex128)
    out[:, 0:2 * first.shape[1]:2] = first
    out[:, 1:2 * first.shape[1]:2] = second
    return out


def synthetic_tempered(seed: int, degree: int = 2, label: str | None = None) -> RepresentationData:
    """Unit-circle parameters in conjugate pairs with seed-determined angles.

    An odd degree adds a parameter +-1 with a seed-determined sign.
    """

    def satake(primes: np.ndarray) -> np.ndarray:
        unit = np.exp(1j * tempered_angles(seed, primes, degree))
        out = _conjugate_pairs(unit, unit.conj(), degree)
        if degree % 2:
            out[:, -1] = np.where(uniform_draws(seed, TEMPERED_SIGN, 1, primes)[:, 0] < 0.5,
                                  1.0, -1.0)
        return out

    return RepresentationData(
        label=label or f"synthetic-tempered(seed={seed})",
        degree=degree, satake_fn=satake,
        normalization="unit-circle conjugate pairs",
    )


def synthetic_with_profile(seed: int, profile, degree: int = 2,
                           label: str | None = None) -> RepresentationData:
    """Parameters with |a| up to q^delta for the given bound profile.

    Pairs are (a, 1/conj(a)) with a = p^t e^(i theta), theta uniform in
    [0, pi) and t uniform in [0, delta), so the parameter product stays 1
    while the modulus wanders inside the allowed window; an odd degree adds
    the parameter 1.
    """
    delta = float(profile.exponent)

    def satake(primes: np.ndarray) -> np.ndarray:
        pairs = degree // 2
        unit = np.exp(1j * np.pi * uniform_draws(seed, PROFILE_ANGLE, pairs, primes))
        radius = primes.astype(np.float64)[:, None] ** (
            delta * uniform_draws(seed, PROFILE_RADIUS, pairs, primes))
        return _conjugate_pairs(radius * unit, unit / radius, degree)

    return RepresentationData(
        label=label or f"synthetic-{profile.name}(seed={seed})",
        degree=degree, satake_fn=satake,
        normalization=f"|a| <= q^{profile.exponent}, parameter product 1",
    )


def require_size_bound(rep: RepresentationData, primes) -> None:
    """Hard failure if any parameter breaks the square-root size wall."""
    primes = np.asarray(primes, dtype=np.int64)
    moduli = _moduli(rep.satake_array(primes))
    over = moduli > np.sqrt(primes.astype(np.float64))[:, None] + 1e-9
    if over.any():
        row, col = np.argwhere(over)[0]
        p = int(primes[row])
        raise NotTempered(
            f"{rep.label}: |parameter| = {moduli[row, col]:.6g} > sqrt({p}) at p={p}")
