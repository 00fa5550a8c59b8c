"""Coefficient sources: eigenvalue files, Satake files and synthetic parameter data.

Each is an ``euler.EulerProduct``, the one source type; eigenvalue files and
synthetic sources have one place of norm p at each p (``euler.one_place``).
``RepresentationData`` names the same class only because perfbench/tracer.py
patches its one-prime methods through it; the tracer's removal (ROADMAP
item 1) drops it.

A weight-k eigenvalue file is renormalized so the two local parameters at a
good prime p satisfy a + b = a_p / p^((k-1)/2) and ab = 1, and a weight is
refused where that leaves the float range.  Its exact a_p are the source's
coefficients, and its sorted primes the ``ExplicitList`` of its universe.
Synthetic sources have ``AllPrimes()`` and are counter-based: each random
quantity at p is drawn from the splitmix64 hash of (seed, domain tag,
parameter index, p), so any prime has data, a prime's values do not depend
on which other primes are asked for, and runs are reproducible across
processes and platforms.  Seeds are reduced mod 2**64 first.

Both numeric file formats, eigenvalue files (``p,a_p``, ``load_hecke``) and
Satake files (``load_satake``), are read by one skeleton, ``_read_numeric``,
from three functions of each format: a columnar gate, a row reader, and a
first-fault function, the array checks that both reads call (p prime and
ascending; p prime, q a power of p, no zero parameter).  The gate,
``numeric_columns``, reads by one ``np.loadtxt`` call into int64 and float64
columns only a text that ``csv.reader`` and ``int()`` and ``float()`` per
cell would read to the same values: printable ASCII without '"', since
``loadtxt`` strips a '\\x1c' around a number that ``float()`` refuses, and no
line above ``csv.field_size_limit()``, where ``csv.reader`` refuses a cell.
Every other text, and every cell ``loadtxt`` does not read ('1_0', Arabic-Indic
digits, an int cell spelled '3.0'), goes to the row reader, as the text does
when the checks find any fault.  The first faulty row then raises with the
row reader's message, so every accepted text gives the same bits and every
faulty one the same error either way.  On the benchmark's 2262-row files
(best of 9 x 20 loads, 2-vCPU x86-64 VM, numpy 2.4.6) ``parse_hecke_text``
took 1.3 ms against 3.0 ms by rows, and the Satake load 3.8 ms against 9.9 ms.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import DuplicatePrime, NonPrimeRow, NotTempered, ParseError, UsageError
from .euler import LOG_INDEX_LIMIT, EulerProduct, one_place
from .selectors import ExplicitList
from .sieve import is_prime_array

RepresentationData = EulerProduct  # see the module docstring


def _unitary_pairs(lam: np.ndarray) -> np.ndarray:
    """Roots (a, b) of x^2 - lam x + 1 per real lam, as (len, 2) complex.

    For |lam| < 2 they are the conjugates (lam +- i sqrt(4 - lam^2)) / 2 on
    the unit circle, otherwise the real pair (lam +- sqrt(lam^2 - 4)) / 2.
    Only real arithmetic and a correctly rounded sqrt are used, so the bits
    equal those of the complex formula (lam +- cmath.sqrt(lam^2 - 4)) / 2.
    """
    with np.errstate(over="ignore"):  # an overflowing lam^2 gives the pair (inf, -inf)
        disc = lam * lam - 4.0
    root = np.sqrt(np.abs(disc))
    inside = disc < 0.0
    out = np.zeros((len(lam), 2), dtype=np.complex128)
    out.real[:, 0] = np.where(inside, lam, lam + root) / 2.0
    out.real[:, 1] = np.where(inside, lam, lam - root) / 2.0
    out.imag[:, 0] = np.where(inside, root, 0.0) / 2.0
    out.imag[:, 1] = np.where(inside, -root, 0.0) / 2.0
    return out


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
    - a line longer than ``csv.field_size_limit()``, where ``csv.reader``
      may refuse a cell that ``loadtxt`` reads;
    - no rows, a blank first line, or rows of unequal width.  Other blank
      lines are skipped, as both loaders' row readers drop blank rows;
    - a cell ``loadtxt`` does not read, or an int beyond int64.  ``int()``
      and ``float()`` read some of them, such as '1_0'.  An int cell that is
      a float, such as '2.9' or '3.0', counts as not read: numpy from 1.23
      until that deprecation expired truncates it with a DeprecationWarning,
      which is made an error here, where ``int()`` refuses it;
    - a float that is not finite, which neither format accepts.
    """
    rest = text.encode().translate(None, _PLAIN_BYTES)
    if rest.count(b"\n") != len(rest):
        return None
    start, limit = 0, csv.field_size_limit()
    while len(text) - start > limit:  # the line at start must end within limit + 1 characters
        start = text.rfind("\n", start, start + limit + 1) + 1
        if not start:  # no "\n" there: a line longer than limit
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
    return (table["ints"], table["floats"]) if np.isfinite(table["floats"]).all() else None


def _csv_rows(text: str) -> tuple[list[list[str]], tuple[int, str] | None]:
    """The rows ``csv.reader`` reads up to one it cannot read, such as a cell
    above ``csv.field_size_limit()``, and (line, error) of that row or None."""
    rows, reader = [], csv.reader(io.StringIO(text))
    try:
        rows.extend(reader)
    except csv.Error as e:
        return rows, (reader.line_num, str(e))
    return rows, None


def _read_numeric(text: str, columnar, row_reader, first_fault):
    """(columns, what the checks found) of a numeric CSV text; the first
    faulty row in row order raises.  ``columnar(text)`` gives the columns or
    None; ``first_fault(columns)`` runs the array checks: what they found, and
    None or the first faulty row's error as a function of the rows.  On a
    None or a fault, ``row_reader(text)`` reads the text again: its rows, the
    columns of those read up to one that does not parse, and that row's error
    or None, which raises only when no row before it is faulty."""
    columns = columnar(text)
    if columns is not None:
        found, fault = first_fault(columns)
        if fault is None:
            return columns, found
    rows, columns, unreadable = row_reader(text)
    found, fault = first_fault(columns)
    if fault or unreadable:
        raise fault(rows) if fault else unreadable
    return columns, found


def load_hecke(path: str | Path, weight: int) -> EulerProduct:
    """Load a ``p,a_p`` CSV of eigenvalues and renormalize to unit products.

    Rows must be ascending in p with no duplicates; entries breaking the
    |a_p| <= 2 p^((k-1)/2) size bound are kept but recorded as warnings.
    """
    from .report import read  # here, so that import smolab loads no json or hashlib
    return parse_hecke_text(read(path), weight, label=Path(path).stem)


def parse_hecke_text(text: str, weight: int, label: str = "hecke") -> EulerProduct:
    """Parse ``p,a_p`` rows, read by ``_read_numeric``: a_p finite, p prime
    and ascending.  The first faulty row in row order raises."""
    (ps, values), _ = _read_numeric(text, _hecke_columns, _hecke_rows, _hecke_fault)
    try:
        ps = ps.astype(np.int64)  # the row reader's p are Python ints
    except OverflowError:
        raise ParseError(f"prime {ps[-1]} does not fit a 64-bit integer")
    # Python float pow, once per row: numpy's pow can differ in the last bit,
    # and the file-backed report digests depend on these values
    half = (weight - 1) / 2.0
    try:
        scale = np.array([p**half for p in ps.tolist()], dtype=np.float64)
    except OverflowError:  # inf at each p it overflows at, refused below
        scale = np.array([_power(p, half) for p in ps.tolist()], dtype=np.float64)
    with np.errstate(all="ignore"):
        normalized = values / scale
        out = ~(np.isfinite(normalized) & np.isfinite(2.0 * scale))
    if out.any():
        raise UsageError(f"weight {weight} does not normalize a_p at p={ps[np.argmax(out)]}: "
                         f"p^{half:g} or a_p / p^{half:g} leaves the float range")
    warnings = [f"size bound exceeded at p={int(ps[i])}: "
                f"|{float(values[i])}| > {2.0 * scale[i]:.6g}"
                for i in np.flatnonzero(np.abs(values) > 2.0 * scale + 1e-9).tolist()]

    def coefficient(primes: np.ndarray) -> np.ndarray:
        return normalized[_rows_of(ps, primes, f"{label}: no eigenvalue")]

    return EulerProduct(
        places=one_place(lambda primes: _unitary_pairs(coefficient(primes))),
        universe=ExplicitList(tuple(ps.tolist())),
        label=label, coefficient_fn=coefficient, warnings=tuple(warnings),
    )


def _rows_of(support: np.ndarray, primes: np.ndarray, missing: str) -> np.ndarray:
    """The row of each prime in the ascending ``support``, else KeyError ``{missing} at p=``."""
    rows = np.searchsorted(support, primes)
    found = rows < len(support)
    found[found] = support[rows[found]] == primes[found]
    if not found.all():
        raise KeyError(f"{missing} at p={int(primes[~found][0])}")
    return rows


def _power(p: int, exponent: float) -> float:
    """p**exponent by Python float pow, inf where that overflows."""
    try:
        return p**exponent
    except OverflowError:
        return math.inf


def _hecke_columns(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(p, a_p) columns of a ``p,a_p`` text by ``numeric_columns``, or None."""
    columns = numeric_columns(text, 1, ("p",))
    return None if columns is None else (columns[0][:, 0], columns[1][:, 0])


def _hecke_rows(text: str):
    """The row reader of ``p,a_p`` text: its rows, (p, a_p) of the rows read up to the
    first that does not parse (a row csv cannot read, too few columns, a bad number or a
    non-finite a_p), and that row's error or None.  p is an object array of ints."""
    rows, cut = _csv_rows(text)
    rows = [row for row in rows if "".join(row).strip()]  # drop blank rows
    if rows and rows[0] and rows[0][0].strip().lower() == "p":
        rows = rows[1:]
    ps, values = [], []
    unreadable = ParseError(f"bad numeric row at line {cut[0]}: {cut[1]}") if cut else None
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
    return rows, (np.array(ps, dtype=object), np.array(values, dtype=np.float64)), unreadable


def _hecke_fault(columns: tuple[np.ndarray, np.ndarray]):
    """(None, fault) of ``p,a_p`` columns: fault None or the error of the first row whose
    p is not prime or not above the p before it; within a row, prime first."""
    ps = columns[0]
    prime = is_prime_array(ps)
    faulty = ~prime
    faulty[1:] |= ps[1:] <= ps[:-1]
    if not faulty.any():
        return None, None
    i = int(np.argmax(faulty))
    if not prime[i]:
        return None, lambda rows: NonPrimeRow(f"row index {ps[i]} is not prime")
    if (ps[:i] == ps[i]).any():
        return None, lambda rows: DuplicatePrime(f"prime {ps[i]} appears twice")
    return None, lambda rows: ParseError(f"rows out of order at p={ps[i]}")


def load_satake(path: str | Path) -> EulerProduct:
    """Load a Satake CSV: one place of norm q = p**f per row (p, q, alpha_re_1, alpha_im_1,
    ...).  A prime may have several rows, one per place.  Places without parameters
    (factor 1) or of norm above LOG_INDEX_LIMIT, which no allowed expansion
    reaches, are left out.  The first faulty row in row order raises.
    """
    from .report import read
    label = Path(path).stem
    (p_col, q_col, widths, parts), exponents = _read_numeric(
        read(path), _satake_columns, lambda text: _satake_rows(text, path),
        lambda columns: _satake_fault(columns, path))
    alphas = parts.view(np.complex128)  # (re, im) pairs in row order
    at_row = np.repeat(np.arange(len(p_col)), widths)
    keep = np.flatnonzero((widths > 0) & (q_col <= LOG_INDEX_LIMIT))
    k = int(widths[keep].max(initial=0))
    # each row's parameters, zero-padded to k
    padded = np.zeros((len(p_col), k), dtype=np.complex128)
    starts = np.cumsum(widths) - widths
    slot_of = np.arange(len(alphas)) - starts[at_row]
    fits = slot_of < k
    padded[at_row[fits], slot_of[fits]] = alphas[fits]
    # one (prime, place) cell per row: rows grouped by p, places kept in file order
    ps = p_col[keep].astype(np.int64)  # a kept row has p <= q <= LOG_INDEX_LIMIT
    order = np.argsort(ps, kind="stable")
    ps = ps[order]
    support, first, at, counts = np.unique(ps, return_index=True, return_inverse=True,
                                           return_counts=True)
    slot = np.arange(len(ps)) - first[at]
    exps = np.zeros((len(support), counts.max(initial=0)), dtype=np.int64)
    params = np.zeros(exps.shape + (k,), dtype=np.complex128)
    exps[at, slot] = exponents[keep][order]
    params[at, slot] = padded[keep][order]

    def places(query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = _rows_of(support, query, f"{label}: no Satake parameters")
        return exps[rows], params[rows]

    return EulerProduct(places=places, universe=ExplicitList(tuple(support.tolist())),
                        label=label)


def _satake_columns(text: str):
    """(p, q, widths, parameter parts) of a Satake text by ``numeric_columns``,
    or None unless every row reads, with an even width and q >= 2."""
    columns = numeric_columns(text, 2, ("p", "#"))
    if columns is None or columns[1].shape[1] % 2 or (columns[0][:, 1] < 2).any():
        return None
    ints, floats = columns
    return ints[:, 0], ints[:, 1], np.full(len(ints), floats.shape[1] // 2), floats.ravel()


def _satake_rows(text: str, path: str | Path):
    """The row reader of a Satake text: its rows, (p, q, widths, parameter parts) of the
    rows read up to the first that does not parse (a row csv cannot read, bad columns, a
    non-finite parameter, an odd parameter count, or q < 2), and that row's error, the
    error of a text without rows, or None.  p and q are object arrays of ints."""
    rows, cut = _csv_rows(text)
    rows = [row for row in rows if row and row[0].strip().lower() not in ("p", "#")]
    ps, qs, widths, parts = [], [], [], []
    unreadable = (ParseError(f"bad Satake row at line {cut[0]} in {path}: {cut[1]}") if cut
                  else None if rows else ParseError(f"no Satake rows in {path}"))
    for row in rows:
        try:
            p, q = int(row[0]), int(row[1])
            values = list(map(float, row[2:]))
        except (IndexError, ValueError):
            unreadable = ParseError(f"bad Satake row {row!r} in {path}")
            break
        if not all(map(math.isfinite, values)):
            unreadable = ParseError(f"bad Satake row {row!r} in {path}: non-finite parameter")
            break
        if len(values) % 2:
            unreadable = ParseError(f"bad Satake row {row!r} in {path}: odd parameter column count")
            break
        if q < 2:
            unreadable = UsageError(f"norm must be >= 2, got {q}")
            break
        ps.append(p)
        qs.append(q)
        widths.append(len(values) // 2)
        parts += values
    return rows, (np.array(ps, dtype=object), np.array(qs, dtype=object),
                  np.array(widths, dtype=np.int64), np.array(parts, dtype=np.float64)), unreadable


def _satake_fault(columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                  path: str | Path):
    """(exponents, fault) of Satake columns: f with q = p**f for the rows that pass, and
    None or the error of the first row whose p is not prime, whose q is not a power of p
    (rest, q with p divided out, is not 1) or with a zero parameter."""
    p_col, q_col, widths, parts = columns
    prime = is_prime_array(p_col)
    rest = q_col.copy()
    exponents = np.zeros(len(p_col), dtype=np.int64)  # q = p**f, by division while it goes
    todo = np.flatnonzero(prime)
    while len(todo):
        todo = todo[rest[todo] % p_col[todo] == 0]
        rest[todo] //= p_col[todo]
        exponents[todo] += 1
    at_row = np.repeat(np.arange(len(p_col)), widths)
    zero = np.bincount(at_row[parts.view(np.complex128) == 0], minlength=len(p_col)) > 0
    faulty = ~prime | (rest != 1) | zero
    if not faulty.any():
        return exponents, None
    i = int(np.argmax(faulty))
    if not prime[i]:
        return exponents, lambda rows: NonPrimeRow(f"row prime {p_col[i]} in {path} is not prime")
    if rest[i] != 1:
        return exponents, lambda rows: ParseError(f"bad Satake row {rows[i]!r} in {path}: "
                                                  f"{q_col[i]} is not a power of {p_col[i]}")
    return exponents, lambda rows: UsageError("local parameters must be nonzero")


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


def synthetic_tempered(seed: int, degree: int = 2, label: str | None = None) -> EulerProduct:
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

    return EulerProduct(places=one_place(satake),
                        label=label or f"synthetic-tempered(seed={seed})")


def synthetic_with_profile(seed: int, profile, degree: int = 2) -> EulerProduct:
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

    return EulerProduct(places=one_place(satake),
                        label=f"synthetic-{profile.name}(seed={seed})")


def require_size_bound(rep: EulerProduct, primes) -> np.ndarray:
    """``rep.satake_array(primes)``, refused if any parameter breaks the square-root wall."""
    primes = np.asarray(primes, dtype=np.int64)
    params = rep.satake_array(primes)
    # hypot, as abs() of a Python complex uses, so file-backed moduli keep their bits
    moduli = np.hypot(params.real, params.imag)
    over = moduli > np.sqrt(primes.astype(np.float64))[:, None] + 1e-9
    if over.any():
        row, col = np.argwhere(over)[0]
        p = int(primes[row])
        raise NotTempered(
            f"{rep.label}: |parameter| = {moduli[row, col]:.6g} > sqrt({p}) at p={p}")
    return params
