"""Exact integer q-expansion of the weight-12 discriminant cusp form.

Delta = q * prod_{n>=1} (1 - q^n)^24, so tau(n) is the coefficient of q^(n-1)
in the 24th power of the product.  Jacobi's identity gives its cube in closed
form,

    prod_{n>=1} (1 - q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2),

so the 24th power is ((cube^2)^2)^2: three truncated squarings.

Each product is one Kronecker substitution in base 10^k.  The signed
coefficients of an operand are written as two fixed-width decimal strings,
positive parts and negative parts, and packed once as the ``decimal`` value
pos - neg.  One exact multiplication in a context with maximal precision
follows; libmpdec multiplies operands of this size by number-theoretic
transform, which is far faster than CPython's Karatsuba on ``int``.  The slot
width k makes 10^k exceed twice n * max|a| * max|b|, so every coefficient of
the product fits its slot in balanced form.  Unpacking reads the base-10^k
digits of |product| from the bottom with a balanced borrow and negates them
all if the product was negative.

GMP, through gmpy2, used to be an optional accelerator for the earlier
pentagonal-series ``int`` products (five products, four ``int``
multiplications each).  The three ``decimal`` squarings reach TAU_LIMIT in
about 1.1-1.6 s on a 2-vCPU x86-64 VM without it, against about 60-85 s for
the old ``int`` path, so the optional dependency and its shim are gone and
the module needs only the standard library.  ``decimal`` is already loaded
by ``fractions`` when smolab is imported, so start-up does not grow.
"""

from __future__ import annotations

import csv
import io
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from pathlib import Path

from .errors import LimitExceeded
from .sieve import prime_array

TAU_LIMIT = 10**5


def eta_cubed_coefficients(order: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n)^3 up to q^order (Jacobi's identity)."""
    coeffs = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        coeffs[k * (k + 1) // 2] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    return coeffs


def _pack(coeffs: list[int], width: int, ctx: Context) -> Decimal:
    # fixed-width decimal slots, highest power first; signed value pos - neg
    fmt = f"0{width}d"
    zero = "0" * width
    pos = "".join(format(c, fmt) if c > 0 else zero for c in reversed(coeffs))
    neg = "".join(format(-c, fmt) if c < 0 else zero for c in reversed(coeffs))
    return ctx.subtract(Decimal(pos), Decimal(neg))


def _unpack(packed: Decimal, width: int, count: int) -> list[int]:
    negative = packed.is_signed()
    digits = str(packed.copy_abs()).rjust(width * count, "0")
    base = 10**width
    half = base // 2
    out = []
    carry = 0
    end = len(digits)
    for _ in range(count):
        c = int(digits[end - width:end]) + carry
        end -= width
        if c >= half:
            c -= base
            carry = 1
        else:
            carry = 0
        out.append(c)
    return [-c for c in out] if negative else out


def poly_mul_trunc(a: list[int], b: list[int], order: int) -> list[int]:
    """Exact truncated product of integer polynomials via Kronecker packing.

    Each signed operand is packed once into a ``decimal`` integer; a single
    exact multiplication gives every coefficient up to q^order.  Slots pass
    through ``str``/``int`` conversion, so coefficients of the product must
    stay below CPython's integer string limit (4300 digits by default).
    """
    square = a is b
    a = a[: order + 1]
    b = b[: order + 1]
    max_a = max((abs(c) for c in a), default=0)
    max_b = max((abs(c) for c in b), default=0)
    if max_a == 0 or max_b == 0:
        return [0] * (order + 1)
    bound = max_a * max_b * min(len(a), len(b))
    width = len(str(2 * bound))  # 10**width > 2 * bound
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    pa = _pack(a, width, ctx)
    pb = pa if square else _pack(b, width, ctx)
    return _unpack(ctx.multiply(pa, pb), width, order + 1)


def discriminant_coefficients(limit: int) -> list[int]:
    """tau(1..limit) as exact integers (tau(n) at index n-1)."""
    if limit > TAU_LIMIT:
        raise LimitExceeded(f"tau generation capped at {TAU_LIMIT}")
    if limit < 1:
        return []
    order = limit - 1  # the leading q shifts everything by one
    e3 = eta_cubed_coefficients(order)
    e6 = poly_mul_trunc(e3, e3, order)
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
