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
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import LimitExceeded

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


def prime_count(limit: int, workers: int | None = None) -> int:
    return sum(segment_map(limit, len, workers=workers))


def restrict(primes: np.ndarray, selector=None, support=None,
             exclude: frozenset[int] = frozenset()) -> np.ndarray:
    """The entries of ``primes`` that ``selector`` picks (all if None), that lie
    in ``support`` (a sorted prime sequence, or None for no restriction) and
    that are not in ``exclude``."""
    primes = np.asarray(primes, dtype=np.int64)
    if selector is not None:
        primes = primes[selector.mask(primes)]
    if support is not None:
        primes = primes[np.isin(primes, np.asarray(support, dtype=np.int64))]
    if exclude:
        primes = primes[~np.isin(primes, np.array(sorted(exclude), dtype=np.int64))]
    return primes


def prime_stream(limit: int, selector=None, support=None,
                 exclude: frozenset[int] = frozenset()) -> Iterator[np.ndarray]:
    """The primes <= limit as ascending, nonempty int64 arrays: each sieve
    segment cut down by ``restrict``, in slices of at most STREAM_CHUNK.

    This is the one prime walk of the coefficient experiments and Euler
    products: selection, data support and ramified primes are all masks.
    The slices bound the per-prime temporaries of the array scans.
    """
    if support is not None:
        support = np.asarray(support, dtype=np.int64)
    for seg in iter_prime_segments(limit):
        seg = restrict(seg, selector, support, exclude)
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


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    for a in _SMALL_PRIMES[:4] if n < 3_215_031_751 else _SMALL_PRIMES:
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
