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

Counts of primes by residue class need no sieve walk.  ``residue_prime_counts``
runs Lucy's recurrence on the about 2 sqrt(x) values x // n, in about
phi(q) x^(3/4) / log x cell updates (Lagarias, Miller and Odlyzko, Math.
Comp. 1985; Deleglise and Rivat, Math. Comp. 1996).  ``density natural`` and
``frobstats`` count this way whenever ``residue_counts_pay`` predicts it
cheaper than the sieve; its cost model and measurements are in its
docstring.  At 1e8 it took 0.04 s for q = 4, 0.06 s for q = 11 and 0.09 s
for q = 56, against 0.36 s for the sieve path.

Single integers are tested by ``is_prime``, a deterministic Miller-Rabin
test.  ``is_prime_array`` tests a whole file column at once: every entry
below 3,215,031,751 takes the witnesses 2, 3, 5 and 7 in one uint64 pass,
four rows of square-and-multiply in which every product of two residues
stays below 2**64, and any other entry the scalar test.  On the 2262 rows
of a tau file to 2e4 it took 5 ms against 18 ms for a scalar test per row
(2-vCPU x86-64 VM, numpy 2.4.6).
"""

from __future__ import annotations

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
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


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


def primes_up_to(limit: int) -> Iterator[int]:
    """Ordered stream of the primes <= limit."""
    for seg in iter_prime_segments(limit):
        yield from (int(p) for p in seg)


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


_BLOCK_CELLS = 1 << 16  # state cells updated per numpy call in residue_prime_counts
RECURRENCE_MODULUS_LIMIT = 10**4
RECURRENCE_STATE_BYTES = 1 << 24


def residue_prime_counts(x: int, q: int) -> np.ndarray:
    """Exact int64 counts of the primes p <= x in every residue class mod q.

    Lucy's recurrence on the values v = x // n: a row per unit residue a
    holds, at each v, the integers in [2, v] congruent to a with no prime
    factor below p.  Each prime p <= sqrt(x) not dividing q removes the
    multiples of p in one update, reading the row of a * p^-1 at v // p.
    The primes dividing q lie in no unit row and are added back at the end.
    """
    _check_limit(x)
    if q < 1:
        raise UsageError(f"modulus {q} must be a positive integer")
    counts = np.zeros(q, dtype=np.int64)
    if x < 2:
        return counts
    r = math.isqrt(x)
    n_small = x // r - 1  # the values 1..n_small, then x // r, ..., x // 1
    values = np.concatenate((x // np.arange(1, r + 1, dtype=np.int64),
                             np.arange(n_small, 0, -1, dtype=np.int64)))
    m = len(values)
    units = np.flatnonzero(unit_mask(q))
    row_of = np.full(q, -1, dtype=np.int64)
    row_of[units] = np.arange(len(units))
    # int32 is exact below 2**31 > PRIME_LIMIT; filled a row at a time
    state = np.empty((len(units), m), dtype=np.int32)
    for i, a in enumerate(units.tolist()):
        state[i] = (values - (a or q)) // q + 1
    state[row_of[1 % q]] -= 1  # the integer 1
    width = max(1, _BLOCK_CELLS // len(units))
    for p in simple_sieve(r).tolist():
        if q % p == 0:
            continue
        k = min(r, x // (p * p)) + max(0, n_small - p * p + 1)  # values >= p*p
        w = values[:k] // p
        src = np.where(w > n_small, x // w - 1, m - w)  # column of each v // p
        low = state[:, m - (p - 1) if p - 1 <= n_small else x // (p - 1) - 1]
        perm = row_of[units * pow(p, -1, q) % q]
        # ascending columns are descending values and every read is at a
        # smaller value, so each block reads columns no earlier block wrote
        for start in range(0, k, width):
            end = min(k, start + width)
            block = np.take(state, src[start:end], axis=1)
            block -= low[:, None]
            state[:, start:end] -= block[perm]
    counts[units] = state[:, 0]
    for p in simple_sieve(min(q, x)).tolist():
        if q % p == 0:
            counts[p % q] += 1
    return counts


def residue_counts_pay(xs, q: int) -> bool:
    """Whether ``residue_prime_counts(x, q)`` at every x >= 2 of ``xs`` is
    predicted to beat one sieve up to max(xs), within a bounded state.

    The model is fitted to medians taken on a 2-vCPU x86-64 VM (Python
    3.11.7, numpy 2.4.6); it predicts every measured time for 1e6 <= x <= 1e9
    and phi(q) <= 192 within 27%.  In seconds, the sieve costs 3.5e-9 x
    (0.36 s at 1e8), and the recurrence 4.9e-5 sqrt(x)/log x for its numpy
    calls, one set per prime up to sqrt(x), plus 4.0e-8 phi(q) x^(3/4)/log x
    for its cell updates (at 1e8: 0.04 s for q = 4, 0.06 s for q = 11, 0.09 s
    for q = 56, 0.27 s for q = 420).  The int32 state of phi(q) rows of about
    2 sqrt(x) cells may take at most RECURRENCE_STATE_BYTES.  Below about
    x = 1.07e6 the sieve is predicted to win for every q, and no x up to
    PRIME_LIMIT admits phi(q) > 168.  The modulus is checked first, so a
    large one costs neither phi(q) nor a residue lift: every q above
    RECURRENCE_MODULUS_LIMIT has phi(q) >= 2304.
    """
    xs = [x for x in xs if x >= 2]
    if q > RECURRENCE_MODULUS_LIMIT or not xs:
        return False
    phi = totient(q)
    if 8 * phi * math.isqrt(max(xs)) > RECURRENCE_STATE_BYTES:
        return False
    seconds = sum((4.9e-5 * math.sqrt(x) + 4.0e-8 * phi * x**0.75) / math.log(x) for x in xs)
    return seconds <= 3.5e-9 * max(xs)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_FOUR_WITNESS_LIMIT = 3_215_031_751  # the least strong pseudoprime to 2, 3, 5 and 7


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

    Entries of any size are accepted.  Those in [0, 3,215,031,751) take one
    whole-array Miller-Rabin test to the witnesses 2, 3, 5 and 7 on uint64,
    where the square of every residue fits; any other entry, which only a
    hand-written file can hold, takes the scalar 12-witness ``is_prime``.
    """
    values = np.array(values, dtype=object)
    small = (values >= 0) & (values < _FOUR_WITNESS_LIMIT)
    out = np.zeros(len(values), dtype=bool)
    out[small] = _four_witness_test(values[small].astype(np.uint64))
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
