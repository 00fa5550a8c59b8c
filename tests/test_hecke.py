import math

import numpy as np
import pytest

from smolab.errors import DuplicatePrime, NonPrimeRow, NotTempered, ParseError
from smolab.euler import grc_profile
from smolab.hecke import (parse_hecke_text, require_size_bound,
                          synthetic_tempered, synthetic_with_profile)
from smolab.tau import tau_csv_text


@pytest.fixture(scope="module")
def tau_rep():
    return parse_hecke_text(tau_csv_text(2000), weight=12, label="tau")


def test_normalized_coefficient(tau_rep):
    assert tau_rep.coefficient(2) == pytest.approx(-24 / 2**5.5)
    assert tau_rep.coefficient(2) == pytest.approx(-0.530330, abs=1e-6)


def test_satake_pair_invariants(tau_rep):
    for p in (2, 3, 5, 101):
        a, b = tau_rep.satake(p)
        assert a * b == pytest.approx(1.0)
        assert (a + b).real == pytest.approx(float(tau_rep.coefficient(p).real))
        assert abs(a) == pytest.approx(1.0)  # size bound holds for this form


def test_normalization_round_trip(tau_rep):
    # reconstruct the raw eigenvalue from the parameter pair
    from smolab.tau import generate_tau
    tau = generate_tau(100)
    for p in (2, 3, 5, 7, 97):
        a, b = tau_rep.satake(p)
        rebuilt = (a + b).real * p**5.5
        assert rebuilt == pytest.approx(tau[p], rel=1e-9)


def test_local_factor_degree(tau_rep):
    f = tau_rep.local_factor(11)
    assert f.q == 11 and f.degree == 2 and f.k == 2
    assert all(abs(abs(a) - 1.0) <= 1e-9 for a in f.alphas)


def test_empty_file_is_valid():
    rep = parse_hecke_text("p,a_p\n", weight=12)
    assert rep.universe.primes == ()


def test_non_prime_row_rejected():
    with pytest.raises(NonPrimeRow):
        parse_hecke_text("p,a_p\n4,5\n", weight=12)


def test_duplicate_prime_rejected():
    with pytest.raises(DuplicatePrime):
        parse_hecke_text("p,a_p\n2,-24\n2,-24\n", weight=12)


def test_out_of_order_rejected():
    with pytest.raises(ParseError):
        parse_hecke_text("p,a_p\n3,252\n2,-24\n", weight=12)


@pytest.mark.parametrize("rows,error,message", [
    # a non-prime row before a malformed, duplicate or descending row wins
    ("7,1\n4,1\n11,abc\n", NonPrimeRow, "row index 4 is not prime"),
    ("7,1\n4,1\n11\n", NonPrimeRow, "row index 4 is not prime"),
    ("7,1\n9,1\n7,1\n", NonPrimeRow, "row index 9 is not prime"),
    ("7,1\n1,1\n5,1\n", NonPrimeRow, "row index 1 is not prime"),
    ("7,1\n4,1\n11,inf\n", NonPrimeRow, "row index 4 is not prime"),
    # and loses to one before it
    ("7,1\n11,abc\n4,1\n", ParseError, "bad numeric row ['11', 'abc']"),
    ("7,1\n11,nan\n4,1\n", ParseError, "non-finite a_p in row ['11', 'nan']"),
    ("7,1\n11,-1e400\n4,1\n", ParseError, "non-finite a_p in row ['11', '-1e400']"),
    ("7,1\n11\n4,1\n", ParseError, "expected 'p,a_p' columns, got ['11']"),
    ("7,1\n7,1\n9,1\n", DuplicatePrime, "prime 7 appears twice"),
    ("7,1\n5,1\n9,1\n", ParseError, "rows out of order at p=5"),
    ("3,1\n7,1\n3,1\n", DuplicatePrime, "prime 3 appears twice"),
])
def test_first_faulty_row_raises(rows, error, message):
    with pytest.raises(error) as info:
        parse_hecke_text("p,a_p\n" + rows, weight=12)
    assert type(info.value) is error and str(info.value) == message


def test_prime_beyond_64_bits_is_a_parse_error():
    # 2**64 + 13 is prime and 2**64 + 15 is not
    with pytest.raises(ParseError, match="does not fit a 64-bit integer"):
        parse_hecke_text(f"p,a_p\n2,1\n{2**64 + 13},1\n", weight=12)
    with pytest.raises(NonPrimeRow):
        parse_hecke_text(f"p,a_p\n2,1\n{2**64 + 15},1\n", weight=12)


def test_bad_numeric_rejected():
    with pytest.raises(ParseError):
        parse_hecke_text("p,a_p\n2,abc\n", weight=12)


def test_size_bound_warning_not_error():
    rep = parse_hecke_text("p,a_p\n2,100\n", weight=12)
    assert rep.warnings and "size bound" in rep.warnings[0]
    a, b = rep.satake(2)
    assert a * b == pytest.approx(1.0)  # pair still normalized


def test_synthetic_tempered_reproducible():
    one = synthetic_tempered(7)
    two = synthetic_tempered(7)
    other = synthetic_tempered(8)
    for p in (2, 101, 99991):
        assert one.satake(p) == two.satake(p)
        assert abs(one.satake(p)[0]) == pytest.approx(1.0)
    assert any(one.satake(p) != other.satake(p) for p in (2, 3, 5, 7))


def test_synthetic_profile_respects_size_window():
    profile = grc_profile("GJ")  # exponent 1/4
    rep = synthetic_with_profile(3, profile)
    for p in (2, 3, 101):
        a, b = rep.satake(p)
        assert abs(a * b) == pytest.approx(1.0)
        assert abs(a) <= p**0.25 + 1e-9


def test_require_size_bound():
    profile = grc_profile("GJ")
    rep = synthetic_with_profile(3, profile)
    require_size_bound(rep, [2, 3, 5])  # fine: 1/4 < 1/2
    class Fat:
        label = "fat"
        def satake_array(self, primes):
            p = np.asarray(primes, dtype=complex)[:, None]
            return np.hstack([p, 1 / p])
    with pytest.raises(NotTempered):
        require_size_bound(Fat(), [5])
