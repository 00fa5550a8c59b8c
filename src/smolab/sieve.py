"""Segmented prime sieve with deterministic, worker-count-independent reduction.

Segments span a fixed 2**20 integers.  Each segment sieves only its odd
numbers, in a 2**19-byte mask that starts as a slice of a pattern with the
multiples of 3, 5, 7, 11 and 13 already cleared (period 15015 odd numbers),
so only the base primes above 13 are struck one by one (Bays and Hudson,
*The segmented sieve of Eratosthenes*, BIT 1977).

Parallel runs hand whole segments to worker threads and always reduce the
per-segment results in segment order, so outputs are bit-identical for any
worker count.  Workers give next to no speedup: the strike loop over the base
primes is Python and holds the GIL.  On a 2-vCPU x86-64 VM (Python 3.11.7,
numpy 2.4.6), ``prime_count(10**8)`` took 0.19-0.25 s at one worker and
0.22-0.24 s at two (four medians of five runs each), and
``prime_count(10**9)`` 3.0-4.3 s at one and 3.0-3.7 s at two (single runs).

Other modules walk primes three ways: ``prime_stream`` for lazy per-prime
scans (comparisons, z-ratio, towers, Euler log expansions, first hits),
``prefix_sums`` and ``class_sums`` for cumulative sums (Rajan's sums, the
probe, the weighted pole order, the prime statistics), ``prime_array`` for tau.

Counts of primes by residue class need no sieve walk.  ``residue_sums``
runs Lucy's recurrence on the about 2 sqrt(x) values x // n, in about
rows x^(3/4) / log x cell updates (Lagarias, Miller and Odlyzko, Math.
Comp. 1985; Deleglise and Rivat, Math. Comp. 1996): one row per unit mod q,
or, for the counts of ``class_sums``, one per coset of the subgroup of
units that fixes its class table.  The primes up to x^(1/3) update one at
a time with no array division, and the rest in one batch that makes the
same operations in the same order (``_lucy_walk``).  The recurrence works
for any completely multiplicative weight: int32 rows of counts, or float64
rows of sums of p^-s, one block of rows per exponent, whose starting rows
take 64 terms directly and the rest by Euler-Maclaurin.  One walk at the
largest point serves a whole grid, by one readout rule: a point among the
walk's values reads its column, and any other point walks again.  The
recurrence runs on one thread, so its results do not depend on the worker
count either.

``class_sums`` is the one entry point of the prime statistics (natural and
Dirichlet densities, ``frobstats``, ``prime_zeta``, the unweighted pole
order): per-class counts or sums of p^-s.  A statistic names its classes
once, by a function of a prime array, and states the modulus when they
depend only on p mod it; the recurrence then derives the class of every
residue from that function.  It is the only consumer of ``residue_counts_pay``,
whose cost model and measurements are in its docstring, and takes the
recurrence whenever the model predicts it cheaper than the sieve.  At 1e8
the counts took about 0.010 s for q = 4 and 0.014 s for the 6 coset rows of
a compound selector mod 56, and the sums 0.038 s for q = 8 with three
exponents, against 0.36 s for the sieve path.

Single integers are tested by ``is_prime``, a deterministic Miller-Rabin
test.  ``is_prime_array`` tests a whole file column at once, in three tiers.
Its entries below 3,215,031,751 are looked up in one dense sieve table when
below T = min(SEGMENT_SPAN, 256 n), n the count of such entries, so the
table never passes 1 MiB and costs at most about as much as the
four-witness test of all n of them (``TABLE_PER_TEST``).  The rest of them
take the witnesses 2, 3, 5 and 7 in one uint64 pass, four rows of
square-and-multiply in which every product of two residues stays below
2**64, and any other entry the scalar test.  On the 2262 rows of a tau file to 2e4 the table took 0.16-0.20
ms, against 2.7 ms for the four-witness pass and 18 ms for a scalar test per
row (2-vCPU x86-64 VM, numpy 2.4.6).
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import LimitExceeded, UsageError

SEGMENT_SPAN = 1 << 20
STREAM_CHUNK = 1 << 12  # primes per array from prime_stream
PRIME_LIMIT = 10**9

R = TypeVar("R")


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get("SMOLAB_WORKERS", "1")))
    except ValueError:
        return 1


def simple_sieve(limit: int) -> np.ndarray:
    """Dense sieve; fine up to ~10**7, used for base primes and as an oracle."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    return np.flatnonzero(_prime_table(limit)).astype(np.int64)


def _prime_table(limit: int) -> np.ndarray:
    """Bool array whose entry n says whether n is prime, for 0 <= n <= limit."""
    table = np.ones(limit + 1, dtype=bool)
    table[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if table[p]:
            table[p * p:: p] = False
    return table


def _check_limit(limit: int) -> None:
    if limit > PRIME_LIMIT:
        raise LimitExceeded(f"prime enumeration capped at {PRIME_LIMIT}, got {limit}")


def _segment_bounds(limit: int) -> list[tuple[int, int]]:
    bounds = []
    low = 2
    while low <= limit:
        high = min(low + SEGMENT_SPAN, limit + 1)
        bounds.append((low, high))
        low = high
    return bounds


_PATTERN_PRIMES = (3, 5, 7, 11, 13)
_PATTERN_PERIOD = 3 * 5 * 7 * 11 * 13  # in odd numbers


@functools.cache
def _pattern() -> np.ndarray:
    """Odd numbers 1, 3, 5, ... free of the factors 3-13, over two periods.
    Built on first use, not at import."""
    pattern = np.ones(2 * _PATTERN_PERIOD, dtype=bool)
    for q in _PATTERN_PRIMES:
        pattern[(q - 1) // 2:: q] = False
    pattern.flags.writeable = False
    return pattern


def _sieve_segment(low: int, high: int, base: np.ndarray) -> np.ndarray:
    """Primes in [low, high) given base primes up to sqrt(high).

    Only odd numbers are sieved: mask index i stands for (low|1) + 2i.  The
    mask starts as a slice of the pre-sieved pattern, so the Python loop
    strikes only the base primes above 13.
    """
    first = low | 1
    offset = (first - 1) // 2 % _PATTERN_PERIOD
    mask = np.resize(_pattern()[offset:offset + _PATTERN_PERIOD],
                     max(0, (high - first + 1) // 2))
    if first <= _PATTERN_PRIMES[-1]:
        for q in _PATTERN_PRIMES:
            if first <= q < high:
                mask[(q - first) // 2] = True
        if first == 1 and len(mask):
            mask[0] = False
    ps = base[np.searchsorted(base, _PATTERN_PRIMES[-1], side="right"):
              np.searchsorted(base, math.isqrt(max(high - 1, 0)), side="right")]
    # first odd multiple of p at or above max(p*p, low), as a mask index
    starts = np.maximum(ps * ps, (low + ps - 1) // ps * ps)
    starts += ps * (1 - starts % 2)
    starts -= first
    starts //= 2
    for s, p in zip(starts.tolist(), ps.tolist()):
        mask[s::p] = False
    primes = np.flatnonzero(mask)
    primes *= 2
    primes += first
    if low <= 2 < high:
        primes = np.concatenate(([2], primes))
    return primes


def iter_prime_segments(limit: int) -> Iterator[np.ndarray]:
    """Yield int64 arrays of primes, one array per segment, ascending."""
    _check_limit(limit)
    if limit < 2:
        return
    base = simple_sieve(math.isqrt(limit) + 1)
    for low, high in _segment_bounds(limit):
        yield _sieve_segment(low, high, base)


def prime_array(limit: int) -> np.ndarray:
    segs = list(iter_prime_segments(limit))
    if not segs:
        return np.array([], dtype=np.int64)
    return np.concatenate(segs)


_UINT32_MAX = (1 << 32) - 1


def residues(primes: np.ndarray, q: int) -> np.ndarray:
    """p mod q for every entry of an int64 prime array, as intp indices.

    Every prime lies below PRIME_LIMIT < 2**32, where ``u - u // q * q`` on
    uint32 is exact.  The result is cast to intp because numpy indexes with
    a uint32 array several times slower.  A ``mod:`` or ``degree:`` mask over
    60k primes took 180-240 us this way against 386-398 us with int64 ``%``,
    at q = 4, 7, 8 and 11 (2-vCPU x86-64 VM, numpy 2.4.6).  Any other array, or one with an entry outside [0, 2**32)
    (negatives show as huge through the uint64 view), takes ``%``.
    """
    if (primes.dtype == np.int64 and q <= _UINT32_MAX
            and (not primes.size or primes.view(np.uint64).max() <= _UINT32_MAX)):
        u = primes.astype(np.uint32)
        d = np.uint32(q)
        u -= u // d * d  # in place: one uint32 temporary besides u
        return u.astype(np.intp)
    return primes % q


def prime_divisors(n: int) -> frozenset[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out, d = set(), 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


def unit_mask(n: int) -> np.ndarray:
    """Bytes over range(n), set at the residues prime to n (residue 0 for n = 1)."""
    units = np.ones(n, dtype=bool)
    for p in prime_divisors(n):
        units[::p] = False
    return units


def totient(n: int) -> int:
    """Euler's phi(n) = #{0 <= r < n : gcd(r, n) = 1}; phi(1) = 1."""
    for p in prime_divisors(n):
        n = n // p * (p - 1)
    return n


def prime_count(limit: int, workers: int | None = None) -> int:
    return sum(segment_map(limit, len, workers=workers))


def restrict(primes: np.ndarray, selector=None,
             exclude: frozenset[int] = frozenset()) -> np.ndarray:
    """The entries of ``primes`` that ``selector`` picks (all if None) and
    that are not in ``exclude``."""
    primes = np.asarray(primes, dtype=np.int64)
    if selector is not None:
        primes = primes[selector.mask(primes)]
    if exclude:
        primes = primes[~np.isin(primes, np.array(sorted(exclude), dtype=np.int64))]
    return primes


def prime_stream(limit: int, selector=None,
                 exclude: frozenset[int] = frozenset()) -> Iterator[np.ndarray]:
    """The primes <= limit as ascending, nonempty int64 arrays: each sieve
    segment cut down by ``restrict``, in slices of at most STREAM_CHUNK.

    This is the one prime walk of the coefficient experiments and Euler
    products: a selection and the sources' universes are one selector, the
    ramified primes ``exclude``.  Slices bound the array scans' temporaries.
    """
    for seg in iter_prime_segments(limit):
        seg = restrict(seg, selector, exclude)
        for start in range(0, len(seg), STREAM_CHUNK):
            yield seg[start:start + STREAM_CHUNK]


def segment_map(limit: int, fn: Callable[[np.ndarray], R],
                workers: int | None = None) -> list[R]:
    """Apply ``fn`` to each segment's prime array; results in segment order."""
    _check_limit(limit)
    if limit < 2:
        return []
    workers = workers if workers is not None else default_workers()
    base = simple_sieve(math.isqrt(limit) + 1)
    bounds = _segment_bounds(limit)

    def job(b: tuple[int, int]) -> R:
        return fn(_sieve_segment(b[0], b[1], base))

    if workers <= 1 or len(bounds) == 1:
        return [job(b) for b in bounds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, bounds))


def prefix_sums(limit: int, cuts, of_primes: Callable[[np.ndarray], list],
                workers: int | None = None) -> np.ndarray:
    """Entry [g, r, c] sums row r of class c over the keys <= cuts[g]
    (compared as float64), from one ``segment_map`` walk to ``limit``.

    ``of_primes`` maps a segment's primes to one ``(keys, rows)`` pair per
    class, at least one: ascending keys, such as primes or norms, and the
    same number of float64 rows in every class, aligned with them.  The
    shape is read off the pairs of no primes, which also make the result
    when there is no segment.  Per segment each sum is one pairwise
    ``row[:end].sum()`` at the ``searchsorted`` end; segments add up in order
    from 0.0, so the result does not depend on the worker count.
    """
    bounds = np.asarray(cuts, dtype=np.float64)

    def per_segment(seg: np.ndarray) -> np.ndarray:
        pairs = of_primes(seg)
        out = np.zeros((len(bounds), len(pairs[0][1]), len(pairs)))
        for c, (keys, rows) in enumerate(pairs):
            ends = np.searchsorted(keys, bounds, side="right").tolist()
            for r, row in enumerate(rows):
                for g, end in enumerate(ends):
                    out[g, r, c] = row[:end].sum()
        return out

    total = per_segment(np.array([], dtype=np.int64))
    for part in segment_map(limit, per_segment, workers=workers):
        total += part
    return total


_BLOCK_CELLS = 1 << 16  # state cells updated per numpy call in the recurrence
RECURRENCE_MODULUS_LIMIT = 10**4
RECURRENCE_STATE_BYTES = 1 << 24
_DIRECT_TERMS = 64  # leading terms of each starting power-sum row summed one by one
# B_2/2!, B_4/4!, B_6/6!: the Euler-Maclaurin weights of f', f''' and f^(5)
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240)


def _lucy_values(x: int) -> tuple[np.ndarray, int]:
    """The distinct values x // n, descending, and n_small: they are
    x // 1, ..., x // isqrt(x), then every integer from n_small down to 1."""
    r = math.isqrt(x)
    n_small = x // r - 1
    values = np.concatenate((x // np.arange(1, r + 1, dtype=np.int64),
                             np.arange(n_small, 0, -1, dtype=np.int64)))
    return values, n_small


def _icbrt(x: int) -> int:
    """The largest integer c with c**3 <= x, for x >= 0."""
    c = round(x ** (1 / 3))
    while c**3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def _lucy_walk(x: int, q: int, state: np.ndarray, exponents: np.ndarray | None = None,
               row_of: np.ndarray | None = None) -> None:
    """Lucy's recurrence on ``state`` in place, one update per prime p <= sqrt(x)
    not dividing q.

    Rows come in blocks of ``row_of``, a residue -> row map (one row per unit
    mod q by default; counts may take one per coset aH of a subgroup of the
    units), one block per entry of ``exponents`` (one block of counts when it
    is None); columns are the values of ``_lucy_values(x)``.  Row a (aH) at v
    starts as the sum of n^-s, or the count, over 2 <= n <= v in a (aH) mod
    q.  The update for p subtracts, at every v >= p*p, p^-s times the row of
    a * p^-1 at v // p less that row at p - 1: the n with least prime factor p.

    The head primes, p**3 <= x, update one at a time, with no array
    division.  Column c < r = isqrt(x) holds v = x // n, n = c + 1, and v // p
    = x // (n p) sits at column n p - 1 while n p <= r; past that it is below
    x // r, a small value at column m - v // p.  The small values, from
    n_small down to p*p, read v // p, which takes each value p times in a
    row: their terms are formed once per source column and spread by
    ``np.repeat``.  Both go in column blocks of at most _BLOCK_CELLS cells,
    in ascending columns, that is descending values; every read is at a
    smaller value, so each block reads only columns no earlier block wrote.

    The tail primes, p**3 > x, go in one batch: such a p writes only values
    v >= p*p > x^(2/3), and reads only v // p <= x / p < x^(2/3) and p - 1,
    cells that no tail prime writes and that are final once the head is done.
    So the term of every (tail prime, column) pair is gathered at once, and
    the columns go in ascending groups of at most _BLOCK_CELLS cells.  A group
    lays out each column as its current cell followed by its terms in
    ascending p, and one ``np.subtract.reduceat`` makes the subtractions.  In
    both parts every cell sees the operations of the one-prime-at-a-time walk
    in the same order, so float rows come out bit for bit the same.  At 1e8
    the head is 90 primes and the tail 1139; at 1e9, 168 and 3233.
    """
    values, n_small = _lucy_values(x)
    row_of = _unit_rows(q) if row_of is None else row_of
    reps = _row_residues(row_of)
    m = len(values)
    r = math.isqrt(x)
    blocks = np.arange(len(state) // len(reps))[:, None] * len(reps)
    per_row = None if exponents is None else np.repeat(exponents, len(reps))[:, None]
    width = max(1, _BLOCK_CELLS // len(state))
    primes = simple_sieve(r)
    primes = primes[q % primes != 0]
    head = np.searchsorted(primes, _icbrt(x), side="right")
    for p in primes[:head].tolist():
        low = state[:, m - (p - 1)]  # p - 1 <= r - 1 <= n_small
        perm = (row_of[reps * pow(p, -1, q) % q] + blocks).ravel()
        scale = None if per_row is None else float(p) ** -per_row

        def terms_of(cells: np.ndarray) -> np.ndarray:
            cells = cells - low[:, None]
            if scale is not None:
                cells *= scale
            return cells[perm]

        k = min(r, x // (p * p))  # the large values >= p*p
        src = m - values[:k] // p  # the column of each v // p, n p - 1 while n p <= r
        src[:r // p] = np.arange(p - 1, r // p * p, p)
        for start in range(0, k, width):
            end = min(k, start + width)
            state[:, start:end] -= terms_of(np.take(state, src[start:end], axis=1))
        step = max(1, width // p)  # source columns per block of small values
        for top in range(n_small // p, p - 1, -step):
            least = max(p, top - step + 1)
            runs = np.full(top - least + 1, p)
            v_top = min(n_small, top * p + p - 1)  # the largest v with v // p = top
            runs[0] = v_top - top * p + 1
            state[:, m - v_top:m - least * p + 1] -= np.repeat(
                terms_of(state[:, m - top:m - least + 1]), runs, axis=1)
    tail = primes[head:]
    if not len(tail):
        return
    # row i of prime p reads row perm[p, i], the coset of reps[i] * p^-1
    into = row_of[reps * (tail[:, None] % q) % q]
    perm = np.empty_like(into)
    np.put_along_axis(perm, into, np.arange(len(reps)), axis=1)
    base = (perm[:, None, :] + blocks).reshape(len(tail), len(state))
    base *= m  # flat index of the row each (prime, row) reads, at column 0
    flat = state.reshape(-1)
    low = flat[base + (m - (tail - 1))[:, None]]  # p - 1 <= r - 1 <= n_small
    scale = None if per_row is None else tail[:, None].astype(np.float64) ** -per_row.T
    k = x // (tail * tail)  # values >= p*p, all x // n with n <= r as p*p > x^(2/3)
    per_col = len(tail) - np.searchsorted(k[::-1], np.arange(k[0]), side="right")
    ends = np.concatenate(([0], np.cumsum(per_col + 1))).tolist()  # layout rows before each column
    lo = 0
    while lo < len(per_col):
        hi = max(lo + 1, bisect.bisect_right(ends, ends[lo] + width) - 1)
        # column c takes the terms of the tail primes with k > c, a prefix
        n = per_col[lo:hi]
        first = np.cumsum(n) - n  # pair index of each column's first term
        col = np.repeat(np.arange(lo, hi), n)
        prime = np.arange(len(col)) - np.repeat(first, n)
        d = (col + 1) * tail[prime]  # v // p = x // d at the column of v = x // (col + 1)
        at = base[prime]
        at += np.where(d <= r, d - 1, m - x // d)[:, None]
        terms = flat[at]
        terms -= low[prime]
        if scale is not None:
            terms *= scale[prime]
        cells = np.arange(hi - lo) + first  # each column's current cell in the layout
        layout = np.empty((len(cells) + len(col), len(state)), dtype=state.dtype)
        layout[cells] = state[:, lo:hi].T
        layout[np.arange(len(col)) + (col - lo) + 1] = terms
        state[:, lo:hi] = np.subtract.reduceat(layout, cells, axis=0).T
        lo = hi


def _unit_rows(q: int) -> np.ndarray:
    """The residue -> row map of one row per unit mod q, in ascending order,
    with -1 at every other residue."""
    units = unit_mask(q)
    return np.where(units, np.cumsum(units) - 1, -1)


def _coset_rows(q: int, table: np.ndarray) -> np.ndarray:
    """The residue -> row map of one row per coset of the stabilizer H = {h
    unit : table[h a mod q] = table[a] for every unit a} of a class table over
    range(q), rows in ascending least residue, with -1 at the non-units.
    Every residue of a row has the class of its least one."""
    units = np.flatnonzero(unit_mask(q))
    stabilizer = units[(table[units[:, None] * units % q] == table[units]).all(axis=1)]
    least = (units[:, None] * stabilizer % q).min(axis=1)  # of each unit's coset
    row_of = np.full(q, -1, dtype=np.int64)
    row_of[units] = np.unique(least, return_inverse=True)[1]
    return row_of


def _row_residues(row_of: np.ndarray) -> np.ndarray:
    """The least residue of each row of a residue -> row map, in row order."""
    return np.unique(row_of, return_index=True)[1][-(row_of.max() + 1):]  # past the -1


def residue_sums(grid, q: int, exponents=None, row_of: np.ndarray | None = None) -> np.ndarray:
    """Per-residue prime counts or sums of p^-s over the primes p <= g mod q,
    at every point g of a nonempty grid.

    With ``exponents`` None the result is the exact int64 counts, of shape
    (len(grid), q): the rows are int32, exact below 2**31 > PRIME_LIMIT.
    Otherwise it is the float64 sums, of shape (len(grid), len(exponents),
    q), every exponent s > 1 taking one block of rows in the same walk.  The
    primes dividing q lie in no unit row and are added back at the end.  A
    state above RECURRENCE_STATE_BYTES is refused with LimitExceeded before
    it is built.

    Counts may pass ``row_of``, a ``_coset_rows`` map: the walk then takes one
    row per coset, and each coset's count lands at its least residue, its
    other residues reading 0.  Sums always take one row per unit, as summing
    their starting rows per coset would move their last bits.

    One ``_lucy_walk`` at the largest point x serves the grid.  Once it is
    done, the column of each value v holds the primes up to v: its starting
    cells depend on v alone, and it has seen the operations of a walk at v
    in the same order.  So a point among the values, g <= n_small or
    x // (x // g) == g, reads its column, to the bit; any other point walks
    again.

    Error of a sum: each of the about pi(sqrt(x)) updates of a cell rounds
    three times (difference, product, subtraction), each time by at most eps
    = 2**-53 times a partial sum no larger than the cell's starting value M,
    and the starting value is within about 64 eps M of its exact sum.  Errors
    read from other cells come in scaled by p^-s < 1/2, so to first order the
    result is within (3 pi(sqrt(x)) + 64) eps M of the exact sum, M below
    log(x) + 1 for s > 1.  At 1e8 every class was within 7e-16 of
    ``math.fsum`` over the sieved primes for q = 8 and s = 1.1, 1.25 and 1.5,
    and within 2.5e-15 for q = 4 and s = 1 + 1/16.
    """
    grid = [int(g) for g in grid]
    x = max(grid)
    _check_limit(x)
    if q < 1:
        raise UsageError(f"modulus {q} must be a positive integer")
    if exponents is not None:
        if row_of is not None:
            raise ValueError("prime power sums take one row per unit")
        exponents = np.array(exponents, dtype=np.float64).reshape(-1)
        if not (exponents > 1).all():
            raise UsageError("prime power sums need every exponent s > 1")
    k = 1 if exponents is None else len(exponents)
    out = np.zeros((len(grid), k, q), dtype=np.int64 if exponents is None else np.float64)
    if x >= 2:
        rows = _unit_rows(q) if row_of is None else row_of
        reps = _row_residues(rows)
        _check_state(x, k * len(reps), 4 if exponents is None else 8)
        values, n_small = _lucy_values(x)
        state = (_count_rows(values, q, rows) if exponents is None
                 else _power_sum_rows(values, q, reps, exponents))
        if row_of is None:  # the four-argument walk, one row per unit
            _lucy_walk(x, q, state, exponents)
        else:
            _lucy_walk(x, q, state, row_of=row_of)
        divisors = [p for p in simple_sieve(min(q, x)).tolist() if q % p == 0]
        for i, g in enumerate(grid):
            if g < 2:
                continue
            if g > n_small and x // (x // g) != g:
                out[i] = residue_sums([g], q, exponents, row_of).reshape(k, q)
                continue
            column = len(values) - g if g <= n_small else x // g - 1
            out[i][:, reps] = state[:, column].reshape(k, -1)
            for p in divisors:
                if p <= g:
                    out[i, :, p % q] += 1 if exponents is None else float(p) ** -exponents
    return out[:, 0] if exponents is None else out


def _count_rows(values: np.ndarray, q: int, row_of: np.ndarray) -> np.ndarray:
    """int32 rows of #{2 <= n <= v : n mod q in the row} at every value v, one
    per row of a residue -> row map."""
    state = np.zeros((row_of.max() + 1, len(values)), dtype=np.int32)
    shifted = values + q  # 1 <= n <= v has (v + q - a) // q of the n = a mod q, 1 <= a <= q
    for a in np.flatnonzero(row_of >= 0).tolist():
        state[row_of[a]] += (shifted - (a or q)) // q
    state[row_of[1 % q]] -= 1  # the integer 1
    return state


def _power_sum_rows(values: np.ndarray, q: int, units: np.ndarray,
                    exponents: np.ndarray) -> np.ndarray:
    """Rows of sum_{2 <= n <= v, n = a mod q} n^-s at every value v, one per
    (exponent s, unit class a) in the row order of ``_lucy_walk``.

    The n = n0 + q t, t = 0, 1, ..., of a class are summed directly for
    t < 64 and by Euler-Maclaurin from t = 64 on, with the B_2, B_4 and B_6
    terms.  The k-th derivative there carries (q / (n0 + 64 q))^k <= 64^-k,
    so the first neglected term, B_8/8! times the seventh derivative, is for
    s <= 2 below 8e-15 times the term at t = 64, itself at most 64^-s.
    """
    state = np.empty((len(exponents) * len(units), len(values)))
    t = np.arange(_DIRECT_TERMS, dtype=np.float64)
    for j, a in enumerate(units.tolist()):
        n0 = a + q * -(-max(0, 2 - a) // q)  # the least n >= 2 in the class
        last = (values - n0) // q  # the last t, negative when no n <= v
        head_at = np.minimum(last, _DIRECT_TERMS - 1)
        tail = last >= _DIRECT_TERMS
        u_a = float(n0 + q * _DIRECT_TERMS)
        u_b = n0 + q * last[tail].astype(np.float64)
        for i, s in enumerate(exponents.tolist()):
            head = np.cumsum((n0 + q * t) ** -s)
            row = np.where(last >= 0, head[np.maximum(head_at, 0)], 0.0)
            f_a, f_b = u_a ** -s, u_b ** -s
            # integral of (n0 + q t)^-s from t = 64 to the last t
            integral = (u_a * f_a * np.expm1((1 - s) * np.log1p((u_b - u_a) / u_a))
                        / (q * (1 - s)))
            row[tail] += integral + (f_a + f_b) / 2 + _em_correction(s, q, u_b, f_b) \
                - _em_correction(s, q, u_a, f_a)
            state[i * len(units) + j] = row
    return state


def _em_correction(s: float, q: int, u, f):
    """sum_k B_2k/(2k)! times the (2k-1)-th derivative in t of (n0 + q t)^-s,
    at u = n0 + q t where f = u^-s."""
    h = q / u
    c1 = -s
    c3 = c1 * (s + 1) * (s + 2)
    c5 = c3 * (s + 3) * (s + 4)
    w1, w3, w5 = _EM_WEIGHTS
    return f * h * (w1 * c1 + h * h * (w3 * c3 + h * h * w5 * c5))


def _state_bytes(x: int, rows: int, cell_bytes: int) -> int:
    """Bytes of a recurrence state at x >= 2: about 2 sqrt(x) cells per row."""
    return 2 * rows * cell_bytes * math.isqrt(x)


def _check_state(x: int, rows: int, cell_bytes: int) -> None:
    size = _state_bytes(x, rows, cell_bytes)
    if size > RECURRENCE_STATE_BYTES:
        raise LimitExceeded(f"recurrence state at x = {x} with {rows} rows takes {size} "
                            f"bytes, capped at {RECURRENCE_STATE_BYTES}")


def residue_counts_pay(xs, q: int, exponents: int | None = None) -> bool:
    """Whether the recurrence at every x >= 2 of ``xs`` is predicted to beat
    one sieve up to max(xs), within a bounded state.

    The run is ``residue_sums(xs, q, ...)``: with ``exponents`` None, phi(q)
    rows of 4-byte int32 cells; with k exponents, k phi(q) rows of 8-byte
    float64 cells.  The model charges the walks that run makes: one at
    max(xs), and one more at each point off its values.

    The model was fitted to medians of seven interleaved runs on a 2-vCPU
    x86-64 VM (Python 3.11.7, numpy 2.4.6), and predicted each of them for
    1e6 <= x <= 1e8 within 19%.  In seconds, the sieve path costs 3.5e-9 x
    (0.36 s at 1e8), and the recurrence 8.3e-5 sqrt(x)/log x for its numpy
    calls, one set per prime up to sqrt(x), plus 1.2e-8 rows * bytes *
    x^(3/4)/log x for its cell updates.  Since then the primes above x^(1/3)
    update in one batch and the head divides no array, and the model
    overstates the recurrence on purpose: a refit would move some power-sum
    cutoffs from the sieve path to the recurrence, and with them the last
    bits of their reports, so it is left to a change that declares those
    bytes.  Counts are charged phi(q) rows though ``class_sums`` walks one
    per coset: the cosets come from a class table built only on acceptance.
    Medians of three processes' medians of nine on the same VM, at 1e8:
    the counts took 0.010 s for q = 4, 0.021 s for q = 11, 0.038 s for q =
    56 on one row per unit (0.014 s on the 6 coset rows of a compound
    selector) and 0.15 s for q = 420; the power sums 0.007 s for q = 1 with
    one exponent, 0.011 s for q = 4 with one, 0.038 s for q = 8 with three
    and 0.19 s for q = 56 with two.  The
    state of about 2 sqrt(x) cells per row may take at most
    RECURRENCE_STATE_BYTES.  Below about x = 2.7e6 the sieve is predicted to
    win for every q, and no x up to PRIME_LIMIT admits phi(q) > 148 for
    counts, or phi(q) > 72 for sums at one exponent (phi(q) = 156 at 1.78e8
    measured 0.70 s by recurrence against 0.64 s on the sieve path).  The
    modulus is checked first, so a large one costs
    neither phi(q) nor a class table: every q above RECURRENCE_MODULUS_LIMIT
    has phi(q) >= 2304.
    """
    xs = [int(x) for x in xs if x >= 2]
    if q > RECURRENCE_MODULUS_LIMIT or not xs:
        return False
    top = max(xs)
    rows, cell_bytes = (1, 4) if exponents is None else (exponents, 8)
    rows *= totient(q)
    if _state_bytes(top, rows, cell_bytes) > RECURRENCE_STATE_BYTES:
        return False
    n_small = top // math.isqrt(top) - 1  # residue_sums walks again off its values
    walks = [top] + [x for x in xs if x > n_small and top // (top // x) != x]
    seconds = sum((8.3e-5 * math.sqrt(x) + 1.2e-8 * rows * cell_bytes * x**0.75) / math.log(x)
                  for x in walks)
    return seconds <= 3.5e-9 * top


def class_sums(grid, n_classes: int, classes: Callable[[np.ndarray], np.ndarray],
               modulus: int | None = None, exponents=None,
               workers: int | None = None) -> np.ndarray:
    """Per-class prime counts, or per-class sums of p^-s, at every point g of ``grid``.

    Every prime has a class in range(n_classes), or -1 when it is left out:
    ``classes`` maps an ascending prime array to them.  When they depend
    only on p mod ``modulus``, passing it lets the recurrence read them off
    the residue classes.  With ``exponents`` None the result is the int64
    counts of the primes p <= g, of shape (len(grid), n_classes); otherwise
    the float64 sums, of shape (len(grid), len(exponents), n_classes).

    When ``residue_counts_pay`` accepts the modulus, one ``residue_sums``
    call gives every residue class at every point, by its readout rule, and
    only then is the class table over range(modulus) built
    (``_residue_classes``), so a modulus the model refuses never builds it.
    Counts walk one row per coset of the units that fix the table
    (``_coset_rows``), sums one row per unit.  Otherwise one walk to
    max(grid) classifies each segment, counts by ``bincount`` and sums by
    ``prefix_sums``, and the per-segment results add up in segment order.

    A class sum is one pairwise ``.sum()`` over a contiguous row in ascending
    p (ascending residue on the recurrence), so one class on the sieve is
    ``(primes ** -s).sum()`` per segment to the bit.  Error: within (3
    pi(sqrt(x)) + 64 + log2 q) eps (log x + 1) of the exact sum up to x, eps
    = 2**-53: the recurrence's bound per residue cell, whose starting values
    add up to at most log x, plus a pairwise reduction over at most q cells.
    The sieve path is well inside it: each term rounds once, each segment's
    sum adds about log2 of its length and the segment totals x / SEGMENT_SPAN.
    """
    grid = [int(g) for g in grid]
    k = None if exponents is None else len(exponents)
    if modulus is not None and residue_counts_pay(grid, modulus, k):
        table = _residue_classes(classes, modulus)
        row_of = _coset_rows(modulus, table) if k is None else None
        return _reduce_classes(residue_sums(grid, modulus, exponents, row_of), table, n_classes)
    if k is not None:
        powers = [-float(s) for s in exponents]

        def per_class(seg: np.ndarray) -> list:
            of_seg = classes(seg)
            members = [seg[of_seg == c] for c in range(n_classes)]
            return [(p, [p.astype(np.float64) ** power for power in powers]) for p in members]

        return prefix_sums(max(grid), grid, per_class, workers)
    bounds = np.array(grid, dtype=np.int64)

    def per_segment(seg: np.ndarray) -> np.ndarray:
        shifted = classes(seg) + 1  # class -1 lands in the dropped column 0
        cuts, at = np.unique(np.searchsorted(seg, bounds, side="right"), return_inverse=True)
        return np.stack([np.bincount(shifted[:cut], minlength=n_classes + 1)[1:]
                         for cut in cuts.tolist()])[at]

    total = np.zeros((len(grid), n_classes), dtype=np.int64)
    for part in segment_map(max(grid), per_segment, workers=workers):
        total += part
    return total


def _residue_classes(classes: Callable[[np.ndarray], np.ndarray], q: int) -> np.ndarray:
    """The class of the primes at each residue mod q, as an int64 array over
    range(q): ``classes`` of the residue itself at the units, ``classes`` of
    p at the residue of each prime p dividing q (0 for p = q), and -1 at the
    other residues, which hold no prime.  Leaving those in a class would add
    zero cells to its pairwise sum and could move its last bits.  One call
    of ``classes`` takes the residues and those primes together."""
    divisors = np.array(sorted(prime_divisors(q)), dtype=np.int64)
    of = np.asarray(classes(np.concatenate((np.arange(q, dtype=np.int64), divisors))))
    table = np.where(unit_mask(q), of[:q], -1).astype(np.int64)
    table[divisors % q] = of[q:]
    return table


def _reduce_classes(per_residue: np.ndarray, table: np.ndarray, n_classes: int) -> np.ndarray:
    """Sum the last axis of ``per_residue`` over the residues of each class of
    ``table``, one pairwise sum per class over its residues in ascending order."""
    rows = per_residue.reshape(-1, per_residue.shape[-1])
    out = np.zeros((len(rows), n_classes), dtype=per_residue.dtype)
    for c in range(n_classes):
        members = np.flatnonzero(table == c)
        for r, row in enumerate(rows):
            out[r, c] = row[members].sum()
    return out.reshape(per_residue.shape[:-1] + (n_classes,))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_FOUR_WITNESS_LIMIT = 3_215_031_751  # the least strong pseudoprime to 2, 3, 5 and 7

# Integers of sieve table per entry that ``is_prime_array`` looks up rather
# than tests.  On a 2-vCPU x86-64 VM (Python 3.11.7, numpy 2.4.6) the
# four-witness test cost 1.2-1.5 us per entry (2.6-2.8 ms for the 2262 primes
# below 2e4, 3.4 ms for 2262 primes near 2**20), and the table about 3.7 ns
# per integer (0.05 ms to 2e4, 0.33 ms to 1e5, 3.9 ms to 2**20): a table of
# up to 256 integers per entry below the four-witness limit, about 0.95 us
# each, costs at most about as much as four-witness-testing all of them.
TABLE_PER_TEST = 256


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every 64-bit integer.

    The witnesses 2, 3, 5 and 7 are exact below 3,215,031,751 (Jaeschke,
    *On strong pseudoprimes to several bases*, Math. Comp. 1993); above it
    all twelve primes up to 37 are used.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:4] if n < _FOUR_WITNESS_LIMIT else _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_array(values) -> np.ndarray:
    """``is_prime`` of every entry of an integer sequence, as a bool array.

    Entries of any size are accepted, in three tiers; an int64 array is
    tested as it is, any other sequence as an array of Python ints.  Of the
    entries in [0, 3,215,031,751), those below min(SEGMENT_SPAN,
    TABLE_PER_TEST times their count) are looked up in one dense sieve
    table, the others take one whole-array Miller-Rabin test to the
    witnesses 2, 3, 5 and 7 on uint64, where the square of every residue
    fits.  Any other entry, which only a hand-written file can hold, takes
    the scalar 12-witness ``is_prime``.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.int64):
        values = np.array(values, dtype=object)
    small = (values >= 0) & (values < _FOUR_WITNESS_LIMIT)
    n = values[small].astype(np.uint64)
    looked_up = n < min(SEGMENT_SPAN, TABLE_PER_TEST * len(n))
    prime = np.zeros(len(n), dtype=bool)
    if looked_up.any():
        prime[looked_up] = _prime_table(int(n[looked_up].max()))[n[looked_up]]
    if not looked_up.all():
        prime[~looked_up] = _four_witness_test(n[~looked_up])
    out = np.zeros(len(values), dtype=bool)
    out[small] = prime
    for i in np.flatnonzero(~small).tolist():
        out[i] = is_prime(int(values[i]))
    return out


def _four_witness_test(n: np.ndarray) -> np.ndarray:
    """Primality of a uint64 array with entries below 3,215,031,751."""
    out = np.isin(n, np.array(_SMALL_PRIMES[:4], dtype=np.uint64))
    todo = np.flatnonzero((n > 7) & (n % 2 != 0) & (n % 3 != 0) & (n % 5 != 0) & (n % 7 != 0))
    m = n[todo]
    d, s = m - 1, np.zeros(len(m), dtype=np.uint64)  # m - 1 = d * 2**s with d odd
    while (even := d % 2 == 0).any():
        d[even] //= 2
        s[even] += 1
    # one row per witness: x = a**d mod m by square and multiply over the bits of d
    base = np.array(_SMALL_PRIMES[:4], dtype=np.uint64)[:, None] % m
    x = np.ones_like(base)
    while d.any():
        x = np.where(d % 2 == 1, x * base % m, x)
        base = base * base % m
        d //= 2
    strong = (x == 1) | (x == m - 1)
    # a**(2**r d) = -1 counts only for r < s: past it, the power is a power
    # of a**(m - 1), which is 1 for a prime m
    for r in range(1, int(s.max(initial=0))):
        x = x * x % m
        strong |= (x == m - 1) & (s > r)
    out[todo] = strong.all(axis=0)
    return out
