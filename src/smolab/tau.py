"""Exact integer q-expansion of the weight-12 discriminant cusp form.

Delta = q * prod_{n>=1} (1 - q^n)^24, so tau(n) is the coefficient of q^(n-1)
in the 24th power of the product.  Jacobi's identity gives its cube in closed
form,

    prod_{n>=1} (1 - q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2),

a series with only about sqrt(2n) nonzero terms up to q^n.  Its square, the
6th power, is taken from those terms alone: one exact int64 scatter-add over
the about n pairs of exponents.  The 24th power is then ((6th)^2)^2, two
truncated squarings by ``poly_mul_trunc``.

Each product is a float64 FFT convolution over balanced limbs (C. Percival,
Rapid multiplication modulo the sum and difference of highly composite
numbers, Math. Comp. 72 (2003), 387-395).  Coefficients are split into
base-2^L digits in [-2^(L-1), 2^(L-1)), on int64 when an operand fits and on
Python ints otherwise, and each digit column takes one ``rfft`` of length
2^n, the least power of two that holds the whole product.  The column at
shift s (bit offset L s) is one ``irfft`` of the spectrum pairs j + k = s,
rounded; the columns are carried low to high into int64 words of at most 60
bits, and only those few words become ``int``.

A digit column has norm at most 2^(L-1) sqrt(length), and a shift sums at
most P = ceil(bits / L) + 1 pairs (bits of the smaller operand's largest
coefficient), so by Percival's Theorem 5.1, with the twiddle error taken as
eps = 2^-53, a column is off by less than
P 4^(L-1) sqrt(len a len b) ((1 + eps)^(6n+P-1) (1 + eps sqrt5)^(3n+1) - 1),
about P 4^(L-1) sqrt(len a len b) (12.7 n + P + 1.2) eps.  L is the widest
limb that keeps this below 1/4, fixed before any transform.  Every column is
then below 2^50, where float64 is exact, and a rounding residual above 1/4,
which only a transform less accurate than the bound assumes could give,
raises ``NumericalDegeneracy``.  L is 14 at 2e4 (length 2^16; bounds 0.09 and
0.12 for the two squarings) and 13 at TAU_LIMIT = 1e5 (2^18; 0.13 and 0.22);
the largest residuals seen are 7.6e-6 and 6.7e-6.

On a 2-vCPU x86-64 VM (Python 3.11.7, numpy 2.4.6), in fresh processes,
``discriminant_coefficients`` takes 41-47 ms at 2e4 and 213-234 ms at 1e5
(Kronecker products in ``decimal`` before: 107-120 ms and 673-729 ms), and
``data gen-tau`` peaks at 41.8 and 60.6 MiB of RSS (before: 41.5 and 61.0).
``numpy.fft`` is loaded by the first product, not when smolab is imported.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import LimitExceeded, NumericalDegeneracy
from .sieve import prime_array

TAU_LIMIT = 10**5

_EPS = 2.0**-53  # unit roundoff of float64
_WORD_BITS = 60  # limbs are recombined into int64 words of at most this many bits


def _jacobi_terms(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents k(k+1)/2 <= order and coefficients (-1)^k (2k+1) of Jacobi's series."""
    k = np.arange(math.isqrt(2 * order) + 1, dtype=np.int64)
    exponents = k * (k + 1) // 2
    k, exponents = k[exponents <= order], exponents[exponents <= order]
    return exponents, np.where(k % 2, -(2 * k + 1), 2 * k + 1)


def _eta_sixth(order: int) -> np.ndarray:
    """Coefficients of prod_{n>=1} (1 - q^n)^6 up to q^order, as int64.

    The square of Jacobi's series from its K ~ sqrt(2 order) nonzero terms:
    each coefficient is a sum of at most K products of size at most (2K)^2,
    below 2**31 at TAU_LIMIT.
    """
    exponents, values = _jacobi_terms(order)
    sums = exponents[:, None] + exponents[None, :]
    keep = sums <= order
    out = np.zeros(order + 1, dtype=np.int64)
    np.add.at(out, sums[keep], (values[:, None] * values[None, :])[keep])
    return out


def _integers(coeffs) -> np.ndarray:
    """An integer sequence as int64 when every entry fits, else as Python ints."""
    try:
        return np.asarray(coeffs, dtype=np.int64)
    except OverflowError:
        return np.array(coeffs, dtype=object)


def _limb_width(bits: int, length: float, size: int) -> int:
    """The widest limbs L whose a-priori product error stays below 1/4.

    ``bits`` is the bit length of the smaller operand's largest coefficient,
    ``length`` is sqrt(len a * len b) and ``size`` = 2**n the transform length.
    """
    n = size.bit_length() - 1
    for width in range(25, 0, -1):  # 4**(L-1) * sqrt(5) eps < 1/4 needs L <= 25
        pairs = -(-bits // width) + 1  # limbs of the smaller operand, at most
        growth = math.expm1((6 * n + pairs - 1) * math.log1p(_EPS)
                            + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5)))
        if pairs * 4.0 ** (width - 1) * length * growth < 0.25:
            return width
    raise NumericalDegeneracy(f"no limb width keeps a product of length {size} exact")


def _limbs(values: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Balanced base-2**width digits of an integer array, lowest first, as float64."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    while values.any():
        digit = values & mask
        up = digit >= half  # take the digit as digit - 2**width and carry one
        yield (digit - (up.astype(np.int64) << width)).astype(np.float64)
        values = (values >> width) + up  # no overflow at +-(2**63 - 1)


def _product_words(a: np.ndarray, b: np.ndarray, kept: int, width: int,
                   size: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The first ``kept`` product coefficients as a sign in {0, -1} and int64
    words of 60 // width base-2**width digits, lowest first: one inverse
    transform per shift, carried low to high until the carry is the sign."""
    fa = [np.fft.rfft(limb, size) for limb in _limbs(a, width)]
    fb = fa if b is a else [np.fft.rfft(limb, size) for limb in _limbs(b, width)]
    spectrum, term = np.empty_like(fa[0]), np.empty_like(fa[0])
    inverse = np.empty(size)
    per_word, shifts = _WORD_BITS // width, len(fa) + len(fb) - 1
    carry, words, shift = np.zeros(kept, dtype=np.int64), [], 0
    while shift < shifts or shift % per_word or ((carry != 0) & (carry != -1)).any():
        if shift < shifts:
            spectrum[:] = 0
            for j in range(max(0, shift - len(fb) + 1), min(shift, len(fa) - 1) + 1):
                spectrum += np.multiply(fa[j], fb[shift - j], out=term)
            column = np.fft.irfft(spectrum, size, out=inverse)[:kept]
            rounded = np.rint(column)
            if np.abs(np.subtract(column, rounded, out=column), out=column).max() > 0.25:
                raise NumericalDegeneracy(f"FFT rounding residual above 1/4 at length {size}")
            np.add(carry, rounded, out=carry, casting="unsafe")
        digit = carry & ((1 << width) - 1)
        carry >>= width
        if shift % per_word:
            words[-1] |= digit << (width * (shift % per_word))
        else:
            words.append(digit)
        shift += 1
    return carry, words


def poly_mul_trunc(a: list[int], b: list[int], order: int) -> list[int]:
    """Exact truncated product of integer polynomials by float FFT over limbs.

    Any integer sequence of any coefficient size is accepted; the limb width
    comes from an a-priori rounding bound, and a rounding residual above 1/4
    raises ``NumericalDegeneracy`` instead of returning a wrong integer.
    """
    count = order + 1
    square = a is b
    a = _integers(a[:count])
    b = a if square else _integers(b[:count])
    if not (a.any() and b.any()):
        return [0] * count
    span = len(a) + len(b) - 1  # the product's length before truncation
    size = 1 << (span - 1).bit_length()  # least power of two >= span: no wrap-around
    bits = min(max(int(v.max()).bit_length(), int(v.min()).bit_length()) for v in (a, b))
    width = _limb_width(bits, math.sqrt(len(a) * len(b)), size)
    kept = min(count, span)
    sign, words = _product_words(a, b, kept, width, size)
    # Horner over the words from the top; the sign and the top word fit int64
    word_bits = width * (_WORD_BITS // width)
    values = (sign << word_bits) + words.pop()
    if words:  # beyond int64: Python ints
        values = values.astype(object)
    for word in reversed(words):
        np.multiply(values, 1 << word_bits, out=values)
        np.add(values, word, out=values)
    return values.tolist() + [0] * (count - kept)


def discriminant_coefficients(limit: int) -> list[int]:
    """tau(1..limit) as exact integers (tau(n) at index n-1)."""
    if limit > TAU_LIMIT:
        raise LimitExceeded(f"tau generation capped at {TAU_LIMIT}")
    if limit < 1:
        return []
    order = limit - 1  # the leading q shifts everything by one
    e6 = _eta_sixth(order)
    e12 = _integers(poly_mul_trunc(e6, e6, order))  # int64 below 2**47 at TAU_LIMIT
    del e6
    return poly_mul_trunc(e12, e12, order)


def generate_tau(limit: int) -> dict[int, int]:
    """tau(p) for every prime p <= limit."""
    coeffs = discriminant_coefficients(limit)
    return {p: coeffs[p - 1] for p in prime_array(limit).tolist()}


def tau_csv_text(limit: int) -> str:
    """Coefficient file body with header ``p,a_p`` for primes up to limit."""
    return "p,a_p\n" + "".join(f"{p},{t}\n" for p, t in generate_tau(limit).items())
