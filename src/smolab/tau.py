"""Exact integer q-expansion of the weight-12 discriminant cusp form.

Delta = q * prod_{n>=1} (1 - q^n)^24, so tau(n) is the coefficient of q^(n-1)
in the 24th power of the product.  Jacobi's identity gives its cube in closed
form,

    prod_{n>=1} (1 - q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2),

a series with only about sqrt(2n) nonzero terms up to q^n.  Its square, the
6th power, is taken from those terms alone: one exact int64 scatter-add over
the about n pairs of exponents.  The 24th power is then ((6th)^2)^2, two
truncated squarings by ``poly_mul_trunc``.

Each product is one Kronecker substitution in base 10^w.  A signed operand
is written as the base-10^w digits of its value sum c_i 10^(w i), taken
positive by negating every slot if the top one is negative: slot i borrows
from slot i + 1 exactly when the last nonzero coefficient at or below i is
negative, so the digits come from whole-array arithmetic, one ASCII string
and one ``decimal`` value per operand.  One exact multiplication in a
context with maximal precision follows; libmpdec multiplies operands of this
size by number-theoretic transform, which is far faster than CPython's
Karatsuba on ``int``.  By Cauchy-Schwarz every product coefficient is at
most ||a|| ||b|| in size, and the slot width w is the least with
10^w > 2 ceil(||a|| ||b||) (15 and 27 digits for the two squarings at
n = 2e4).  Then slot i of the product's digits borrows from slot i + 1
exactly when it reads at least 10^w / 2, whatever slot i - 1 borrowed, so
the unpacking needs no carry chain either.  Slots are cut into base-10^18
limbs, written and read a uint8 digit column at a time through int64
arrays, and joined into ``int`` by object-array arithmetic: one path for
every coefficient size, with no per-coefficient Python and no ``int``/``str``
conversion limit.

On a 2-vCPU x86-64 VM (Python 3.11.7, numpy 2.4.6) ``discriminant_coefficients``
takes 0.09-0.12 s at 2e4 and 0.69-0.74 s at TAU_LIMIT = 1e5, against
0.19-0.22 s and 1.26-1.36 s for the earlier three full squarings that packed
and unpacked a slot at a time; ``data gen-tau --limit 100000`` peaks at
60 MiB of RSS against 71 MiB.  ``decimal`` is already loaded by
``fractions`` when smolab is imported, so start-up does not grow.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from pathlib import Path

import numpy as np

from .errors import LimitExceeded
from .sieve import prime_array

TAU_LIMIT = 10**5

_LIMB_DIGITS = 18  # limbs below 10**18 < 2**63 fit int64
_LIMB = 10**_LIMB_DIGITS


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


def _limb_columns(width: int) -> list[tuple[int, int]]:
    """Digit columns [start, end) of the base-10^18 limbs of a slot, lowest first."""
    return [(max(0, end - _LIMB_DIGITS), end) for end in range(width, 0, -_LIMB_DIGITS)]


def _flip_add(limbs: list[np.ndarray], width: int, flip: np.ndarray,
              add: np.ndarray) -> list[np.ndarray]:
    """int64 limbs, lowest first, of (10**width - 1 - x where ``flip``, else x)
    + ``add``, for slots x < 10**width given by their limbs and add in
    {-1, 0, 1}; every result lies in [0, 10**width)."""
    out, carry = [], add.astype(np.int64)
    for (start, end), limb in zip(_limb_columns(width), limbs):
        limb = np.where(flip, 10 ** (end - start) - 1 - limb, limb) + carry
        carry = (limb >= _LIMB).astype(np.int64) - (limb < 0)
        limb -= carry * _LIMB
        out.append(limb)
    return out


def _pack(coeffs: np.ndarray, width: int) -> Decimal:
    """sum c_i 10^(width i) of a nonzero object array of ints with |c_i| < 10^width."""
    nonzero = coeffs != 0
    negative = bool(coeffs[np.flatnonzero(nonzero)[-1]] < 0)
    # the digits of |value|: negate every slot when the top one is negative
    below = coeffs > 0 if negative else coeffs < 0
    # slot i borrows from slot i + 1 when the last nonzero coefficient at or
    # below i is below zero, and then holds 10^width - |c_i| - (borrow into it)
    borrow = below[np.maximum.accumulate(np.where(nonzero, np.arange(len(coeffs)), 0))]
    magnitude, limbs = np.abs(coeffs), []
    for start, _ in _limb_columns(width):
        limbs.append((magnitude % _LIMB if start else magnitude).astype(np.int64))
        if start:
            magnitude = magnitude // _LIMB
    add = borrow.astype(np.int64)
    add[1:] -= borrow[:-1]
    # the sign (or a leading zero), then the slots from the highest down
    text = np.empty(1 + len(coeffs) * width, dtype=np.uint8)
    text[0] = ord("-" if negative else "0")
    digits = text[1:].reshape(len(coeffs), width)[::-1]  # row i is slot i
    for (start, end), limb in zip(_limb_columns(width), _flip_add(limbs, width, borrow, add)):
        for col in range(end - 1, start - 1, -1):
            limb, digits[:, col] = np.divmod(limb, 10)
    digits += ord("0")
    return Decimal(str(text.data, "ascii"))


def _unpack(packed: Decimal, width: int, count: int) -> list[int]:
    """The balanced base-10^width slots 0..count-1 of an integer ``Decimal``."""
    text = str(packed)
    text = text[max(packed.is_signed(), len(text) - width * count):].encode("ascii")
    digits = np.full(width * count, ord("0"), dtype=np.uint8)
    digits[len(digits) - len(text):] = np.frombuffer(text, dtype=np.uint8)
    del text
    digits -= ord("0")
    digits = digits.reshape(count, width)[::-1]  # row i is slot i
    limbs = []
    for start, end in _limb_columns(width):
        limb = np.zeros(count, dtype=np.int64)
        for col in range(start, end):
            limb *= 10
            limb += digits[:, col]
        limbs.append(limb)
    # every |coefficient| < 10^width / 2, so slot i borrows exactly when it
    # reads at least 10^width / 2, whatever slot i - 1 borrowed; a borrowing
    # slot holds 10^width - |c_i| + (borrow into it)
    borrow = digits[:, 0] >= 5
    del digits
    add = borrow.copy()
    add[1:] ^= borrow[:-1]
    limbs = _flip_add(limbs, width, borrow, add)
    values = limbs.pop().astype(object)
    while limbs:  # in place, so one int per slot is alive at a time
        np.multiply(values, _LIMB, out=values)
        np.add(values, limbs.pop(), out=values)
    np.negative(values, out=values, where=borrow ^ packed.is_signed())
    return values.tolist()


def poly_mul_trunc(a: list[int], b: list[int], order: int) -> list[int]:
    """Exact truncated product of integer polynomials via Kronecker packing.

    Each signed operand is packed once into a ``decimal`` integer; a single
    exact multiplication gives every coefficient up to q^order.  Any integer
    sequence of any coefficient size is accepted.
    """
    square = a is b
    a = np.array(a[: order + 1], dtype=object)
    b = a if square else np.array(b[: order + 1], dtype=object)
    norm2_a = a.dot(a)
    norms2 = norm2_a * (norm2_a if square else b.dot(b))  # (||a|| ||b||)^2
    if norms2 == 0:
        return [0] * (order + 1)
    bound = math.isqrt(norms2 - 1) + 1  # ceil(||a|| ||b||) >= every |coefficient|
    width = len(str(2 * bound))  # 10**width > 2 * bound
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    pa = _pack(a, width)
    product = ctx.multiply(pa, pa if square else _pack(b, width))
    del pa  # the operands are as large as half the product
    return _unpack(product, width, order + 1)


def discriminant_coefficients(limit: int) -> list[int]:
    """tau(1..limit) as exact integers (tau(n) at index n-1)."""
    if limit > TAU_LIMIT:
        raise LimitExceeded(f"tau generation capped at {TAU_LIMIT}")
    if limit < 1:
        return []
    order = limit - 1  # the leading q shifts everything by one
    e6 = _eta_sixth(order)
    e12 = poly_mul_trunc(e6, e6, order)
    return poly_mul_trunc(e12, e12, order)


def generate_tau(limit: int) -> dict[int, int]:
    """tau(p) for every prime p <= limit."""
    coeffs = discriminant_coefficients(limit)
    return {int(p): coeffs[int(p) - 1] for p in prime_array(limit)}


def tau_csv_text(limit: int) -> str:
    """Coefficient file body with header ``p,a_p`` for primes up to limit."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "a_p"])
    for p, value in sorted(generate_tau(limit).items()):
        writer.writerow([p, value])
    return buf.getvalue()


def write_tau_csv(limit: int, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(tau_csv_text(limit))
    return path
