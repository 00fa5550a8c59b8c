import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smolab.tau
from smolab.errors import LimitExceeded, NumericalDegeneracy
from smolab.sieve import simple_sieve
from smolab.tau import (_eta_sixth, _jacobi_terms, _limb_width, discriminant_coefficients,
                        generate_tau, poly_mul_trunc, tau_csv_text)

# sha256 of ",".join(str(tau(n)) for n in 1..10**4), taken from the earlier
# Kronecker-substitution implementation (pentagonal series, five int products)
TAU_1E4_SHA256 = "9514e69488cef1f7677168e841e504396576c2ce64e3184da732991791d8257c"
# sha256 of tau_csv_text(20000) and of ",".join(str(tau(n)) for n in 1..10**5), taken
# from the earlier implementation (three full squarings, slots packed one at a time)
TAU_CSV_2E4_SHA256 = "bf763d81754d9f4d365a783b99f814ddfff595465cc3fe1e57f2fcbde533a2c1"
TAU_1E5_SHA256 = "eb660e7a4275e4b585754de8e3ce645f89b5844062d0490937b76e788276a318"


@pytest.fixture(scope="module")
def tau_1e4():
    return discriminant_coefficients(10**4)


def eta_block_coefficients(order: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n) up to q^order (pentagonal numbers)."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    k = 1
    while True:
        p1 = k * (3 * k - 1) // 2
        p2 = k * (3 * k + 1) // 2
        if p1 > order and p2 > order:
            break
        sign = -1 if k % 2 else 1
        if p1 <= order:
            coeffs[p1] = sign
        if p2 <= order:
            coeffs[p2] = sign
        k += 1
    return coeffs


def schoolbook(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] += x * y
    return out


def naive_eta_product_24(limit):
    """Independent oracle: multiply out (1-q^n)^24 term by term, exact ints."""
    order = limit - 1
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        for _ in range(24):
            for i in range(order, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    return coeffs


def test_poly_mul_matches_schoolbook():
    a = [1, -1, 2, 0, 3]
    b = [3, 0, -5, 7]
    order = 6
    expected = [0] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                expected[i + j] += x * y
    assert poly_mul_trunc(a, b, order) == expected


def test_eta_block_is_pentagonal():
    coeffs = eta_block_coefficients(15)
    assert coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]


def test_small_coefficients_match_naive_oracle():
    assert discriminant_coefficients(120) == naive_eta_product_24(120)


def test_classic_values():
    tau = generate_tau(100)
    assert tau[2] == -24
    assert tau[3] == 252
    assert tau[5] == 4830
    assert tau[7] == -16744
    # value cross-checked by the naive product oracle and the mod-691 congruence
    assert tau[97] == 75013568546


def test_hecke_multiplicativity():
    d = discriminant_coefficients(300)
    tau = lambda n: d[n - 1]
    assert tau(6) == tau(2) * tau(3)
    assert tau(10) == tau(2) * tau(5)
    assert tau(4) == tau(2) ** 2 - 2**11 * tau(1)
    assert tau(9) == tau(3) ** 2 - 3**11 * tau(1)
    assert tau(8) == tau(2) * tau(4) - 2**11 * tau(2)


def test_congruence_mod_691(tau_1e4):
    # tau(n) = sigma_11(n) mod 691, an arithmetic identity sharing no code with
    # the product: sigma_11 mod 691 from an int64 divisor sieve
    limit = len(tau_1e4)
    d = np.arange(limit + 1, dtype=np.int64)
    power = np.ones(limit + 1, dtype=np.int64)
    for _ in range(11):
        power = power * d % 691
    sigma = np.zeros(limit + 1, dtype=np.int64)
    for divisor in range(1, limit + 1):
        sigma[divisor::divisor] += power[divisor]
    tau_mod = np.array([t % 691 for t in tau_1e4], dtype=np.int64)
    assert np.array_equal(tau_mod, sigma[1:] % 691)


def test_limit_enforced():
    with pytest.raises(LimitExceeded):
        generate_tau(10**5 + 1)


def test_csv_output_shape():
    text = tau_csv_text(20)
    lines = text.strip().splitlines()
    assert lines[0] == "p,a_p"
    assert lines[1] == "2,-24"
    assert len(lines) == 1 + 8  # primes up to 20


def test_tau_to_1e4_matches_pinned_digest(tau_1e4):
    digest = hashlib.sha256(",".join(map(str, tau_1e4)).encode()).hexdigest()
    assert digest == TAU_1E4_SHA256


def test_tau_csv_to_2e4_matches_pinned_digest():
    assert hashlib.sha256(tau_csv_text(20000).encode()).hexdigest() == TAU_CSV_2E4_SHA256


def test_tau_to_1e5_matches_pinned_digest():
    tau = discriminant_coefficients(10**5)
    assert hashlib.sha256(",".join(map(str, tau)).encode()).hexdigest() == TAU_1E5_SHA256


def test_jacobi_closed_form_is_cube_of_eta_block():
    order = 400
    e1 = eta_block_coefficients(order)
    e3 = [0] * (order + 1)
    for exponent, value in zip(*_jacobi_terms(order)):
        e3[exponent] = value
    assert e3 == schoolbook(schoolbook(e1, e1, order), e1, order)
    # the sparse square tau starts from
    assert _eta_sixth(order).tolist() == schoolbook(e3, e3, order)


def test_hecke_relations_hold_for_every_n_to_1e4(tau_1e4):
    # tau(1) = 1, tau(mn) = tau(m) tau(n) for coprime m, n, and
    # tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)) determine tau from tau(p)
    tau = lambda n: tau_1e4[n - 1]
    limit = len(tau_1e4)
    smallest = list(range(limit + 1))
    for p in map(int, simple_sieve(math.isqrt(limit))):
        for m in range(p * p, limit + 1, p):
            if smallest[m] == m:
                smallest[m] = p
    assert tau(1) == 1
    for n in range(2, limit + 1):
        p = smallest[n]
        pk, k = p, 1
        while n % (pk * p) == 0:
            pk, k = pk * p, k + 1
        if pk != n:
            assert tau(n) == tau(pk) * tau(n // pk), n
        elif k > 1:
            assert tau(n) == tau(p) * tau(n // p) - p**11 * tau(n // p // p), n


def test_discriminant_takes_two_products(monkeypatch):
    # the benchmark tracer counts these calls through the module attribute
    calls = []
    product = smolab.tau.poly_mul_trunc

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(smolab.tau, "poly_mul_trunc", counted)
    discriminant_coefficients(2000)
    assert len(calls) == 2


# Two operands of length 24 (transform size 64) get 20-bit limbs when the
# smaller one's coefficients have at most 60 bits, and 19-bit limbs from 61 to
# 64 bits; the limb-edge examples below are built for these widths.
EDGE = 2**19


def test_edge_examples_sit_at_their_limb_width():
    assert [_limb_width(bits, 24, 64) for bits in (1, 19, 20, 60)] == [20] * 4
    assert [_limb_width(bits, 24, 64) for bits in (61, 63, 64)] == [19] * 3


def test_unreachable_bound_is_refused_before_any_transform():
    with pytest.raises(NumericalDegeneracy):
        _limb_width(64, 1e12, 2**41)


def test_rounding_residual_above_a_quarter_is_refused(monkeypatch):
    # an inverse transform 0.3 off one integer: refused, never rounded away
    inverse = np.fft.irfft

    def perturbed(*args, **kwargs):
        out = inverse(*args, **kwargs)
        out[1] += 0.3
        return out

    monkeypatch.setattr(np.fft, "irfft", perturbed)
    with pytest.raises(NumericalDegeneracy):
        poly_mul_trunc([1, 2, 3], [4, 5], 3)


coefficient = st.one_of(st.integers(-3, 3), st.integers(-10**60, 10**60))


@settings(max_examples=150, deadline=None)
@given(a=st.lists(coefficient, max_size=30), b=st.lists(coefficient, max_size=30),
       order=st.integers(0, 70))
@example(a=[-5, -7, -1], b=[-2, -3], order=10)
@example(a=[0, 0, 0], b=[1, -2], order=4)
@example(a=[], b=[3], order=2)
@example(a=[10**80, -10**80, 1], b=[-10**80, 10**80], order=3)
@example(a=[-1] * 25, b=[-(10**40)] * 25, order=60)
# all-equal operands attain the Cauchy-Schwarz bound ||a|| ||b|| at q^(len-1)
@example(a=[7] * 30, b=[7] * 30, order=60)
@example(a=[7] * 30, b=[-7] * 30, order=60)
@example(a=[-(10**30)] * 20, b=[10**30] * 20, order=45)
# the next two were borrow edges of the earlier base-10**w decimal packing (w = 2)
@example(a=[1] * 49, b=[-1] * 49, order=100)
@example(a=[-6, 0, 0, 1], b=[7], order=3)
# limb edges at width 20: digits +-2**19 and +-(2**19 - 1)
@example(a=[EDGE, -EDGE, EDGE - 1, -(EDGE - 1)] * 6,
         b=[-EDGE, EDGE - 1, EDGE, -(EDGE - 1)] * 6, order=50)
# int64 extremes at width 19, split without overflow
@example(a=[2**63 - 1, -(2**63 - 1), -(2**63)] * 8, b=[-(2**63 - 1), 2**63 - 1, 1] * 8,
         order=50)
# a run of 2**20 - 1, each split into the digits -1 and 1
@example(a=[2 * EDGE - 1] * 24, b=[2 * EDGE - 1] * 24, order=50)
# 2**80 - 1 is the digits -1, 0, 0, 0, 1: the borrow runs through every digit
@example(a=[2**80 - 1] + [0] * 23, b=[1] + [0] * 23, order=50)
# two limbs each: the last shift closes a word, and its carry must still run out
@example(a=[(EDGE - 1) << 20] * 24, b=[-(EDGE - 1) << 20] * 24, order=50)
# an int64 operand with a big-int one
@example(a=[3, -5, 2**62] + [1] * 21, b=[10**40, -(10**30), 7] + [-1] * 21, order=50)
def test_poly_mul_matches_schoolbook_on_signed_inputs(a, b, order):
    assert poly_mul_trunc(a, b, order) == schoolbook(a, b, order)


@settings(max_examples=80, deadline=None)
@given(a=st.lists(coefficient, max_size=30), order=st.integers(0, 70))
@example(a=[-(10**50)] * 10, order=30)
@example(a=[3] * 30, order=60)
@example(a=[-3] * 30, order=60)
# -50 at q^49 attains ||a||^2 = 50; the next was a borrow edge of the decimal packing
@example(a=[1] * 25 + [-1] * 25, order=99)
@example(a=[-2, -4, 5], order=4)
@example(a=[EDGE, -EDGE, EDGE - 1, -(EDGE - 1)] * 6, order=50)
@example(a=[2**63 - 1] * 12 + [-(2**63 - 1)] * 12, order=50)
@example(a=[2 * EDGE - 1] * 24, order=50)
def test_poly_mul_squaring_matches_schoolbook(a, order):
    assert poly_mul_trunc(a, a, order) == schoolbook(a, a, order)
