import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smolab import hecke
from smolab.errors import DuplicatePrime, NonPrimeRow, NotTempered, ParseError, SmolabError
from smolab.euler import grc_profile
from smolab.hecke import (numeric_columns, parse_hecke_text, require_size_bound,
                          synthetic_tempered, synthetic_with_profile)
from smolab.selectors import ExplicitList
from smolab.sieve import is_prime
from smolab.tau import generate_tau, tau_csv_text


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


OVERSIZED = "7" * 140000  # a cell past csv.field_size_limit(), 131072 by default


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
    # a row csv cannot read ends the rows; each ended in a csv.Error traceback
    pytest.param(f"2,1\n{OVERSIZED},1\n3,1\n", ParseError,
                 "bad numeric row at line 3: field larger than field limit (131072)",
                 id="oversized-p"),
    pytest.param(f"2,{OVERSIZED}\n", ParseError,
                 "bad numeric row at line 2: field larger than field limit (131072)",
                 id="oversized-a_p"),
    pytest.param(f"2,1\n4,1\n{OVERSIZED},1\n", NonPrimeRow, "row index 4 is not prime",
                 id="non-prime-before-oversized"),
    pytest.param(f"2,1\n3,x\n{OVERSIZED},1\n", ParseError, "bad numeric row ['3', 'x']",
                 id="bad-row-before-oversized"),
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


def _hecke_oracle(text: str, weight: int = 12):
    """The row-by-row outcome of a ``p,a_p`` text: (error type, message) of
    its first faulty row, or its primes, normalized coefficients, warnings
    and universe, by Python ints and floats one row at a time.

    Rows are read up to the first that does not parse.  Of the rows read, the
    first that is not prime, or not above the one before it, raises; the row
    that does not parse raises only when none of them does.
    """
    rows = [row for row in csv.reader(io.StringIO(text)) if "".join(row).strip()]
    if rows and rows[0] and rows[0][0].strip().lower() == "p":
        rows = rows[1:]
    read, fault = [], None
    for row in rows:
        if len(row) < 2:
            fault = ParseError(f"expected 'p,a_p' columns, got {row!r}")
            break
        try:
            p, a_p = int(row[0]), float(row[1])
        except ValueError:
            fault = ParseError(f"bad numeric row {row!r}")
            break
        if not math.isfinite(a_p):
            fault = ParseError(f"non-finite a_p in row {row!r}")
            break
        read.append((p, a_p))
    for i, (p, _) in enumerate(read):
        if not is_prime(p):
            fault = NonPrimeRow(f"row index {p} is not prime")
        elif i and p <= read[i - 1][0]:
            if any(p == q for q, _ in read[:i]):
                fault = DuplicatePrime(f"prime {p} appears twice")
            else:
                fault = ParseError(f"rows out of order at p={p}")
        else:
            continue
        break
    if fault is None and read and read[-1][0] >= 2**63:
        fault = ParseError(f"prime {read[-1][0]} does not fit a 64-bit integer")
    if fault is not None:
        return type(fault).__name__, str(fault)
    primes, normalized, warnings = [], [], []
    for p, a_p in read:
        scale = p ** ((weight - 1) / 2.0)
        primes.append(p)
        normalized.append(a_p / scale)
        if abs(a_p) > 2.0 * scale + 1e-9:
            warnings.append(f"size bound exceeded at p={p}: |{a_p}| > {2.0 * scale:.6g}")
    return tuple(primes), normalized, tuple(warnings), ExplicitList(tuple(primes))


def _hecke_outcome(text: str, weight: int = 12):
    try:
        rep = parse_hecke_text(text, weight)
    except SmolabError as exc:
        return type(exc).__name__, str(exc)
    primes = rep.universe.primes
    assert all(type(p) is int for p in primes)
    return (primes, rep.coefficient_array(np.array(primes, dtype=np.int64)).tolist(),
            rep.warnings, rep.universe)


# cells where Python's int() and float() and numpy's parser may part: '1_1'
# and the Arabic-Indic digits that only Python reads, '\x1c', which only
# numpy strips, '\xa0', which both strip, and quoted cells, which csv unquotes
_ODD_SPELLINGS = ["1_1", "٣", " 5 ", "+5", "007", "5\x1c", "\xa05", '"7"', "2.0", "", "p",
                  "#", " "]
_HECKE_P = st.sampled_from([2, 3, 5, 7, 97, 2**61 - 1, 2**89 - 1, 1, 0, -3, 4, 9,
                            2**64 + 13, 2**64 + 15]).map(str) | st.sampled_from(_ODD_SPELLINGS)
_HECKE_A = st.sampled_from(["-24", "0.5", "-0.0", "1e-400", "3e30", "1e400", "nan", "-inf", "x",
                            "", "1_0", "١", " 1 ", "+5", "1\x1c", "\xa01", '"2.5"', "1,5"])
_hecke_any_row = st.builds(lambda p, a, extra, cut: ([p, a] + extra)[:cut],
                           _HECKE_P, _HECKE_A, st.lists(_HECKE_A, max_size=2),
                           st.sampled_from([0, 1, 2, 2, 9, 9]))
# ascending distinct primes with plainly spelled a_p, in rows of one width:
# files that np.loadtxt reads whole
_hecke_valid_rows = st.builds(
    lambda primes, values, extra: [[str(p), a] + extra for p, a in zip(primes, values)],
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 97, 7919, 2**61 - 1]), unique=True, max_size=6).map(
        sorted),
    st.lists(st.sampled_from(["-24", "252", "0.5", "-0.0", "1e-3", "3e30", "4830"]),
             min_size=6, max_size=6),
    st.sampled_from([[], [], ["1"], ["0.5", "-2"]]))
_hecke_header = st.sampled_from(["", "p,a_p", " P ,x", "p", "#,a_p"])


@st.composite
def _respelled(draw, rows, spellings):
    """Rows with one cell, when there is one, replaced by a spelling drawn
    from ``spellings(column)``."""
    rows = draw(rows)
    if rows:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i] = rows[i][:j] + [draw(spellings(j))] + rows[i][j + 1:]
    return rows


# one faulty or oddly spelled cell in a file that np.loadtxt would read whole:
# non-finite, duplicate, descending and non-prime cells that only the array
# checks of the columnar read can find, and cells it must hand to the row reader
_hecke_respelled = _respelled(
    _hecke_valid_rows,
    lambda column: (_HECKE_P | st.sampled_from(["2", "11", "9223372036854775783"]) if column == 0
                    else _HECKE_A | st.sampled_from(["inf", "-1e400", "NaN"])))


def _csv_text(header: str, rows: list[list[str]], newline: str, last: bool) -> str:
    lines = ([header] if header else []) + [",".join(row) for row in rows]
    return newline.join(lines) + (newline if last else "")


@settings(max_examples=400, deadline=None)
@given(_hecke_header, _hecke_valid_rows, st.lists(_hecke_any_row, max_size=4),
       st.sampled_from(["\n", "\n", "\r\n"]), st.booleans())
@example("p,a_p", [["2", "-24"], ["3", "252"]], [["5", "1_0"]], "\n", True)
@example("p,a_p", [], [["7", "1"], ["5\x1c", "1"]], "\n", False)
@example("", [["2", "1"]], [[str(2**64 + 13), "1"]], "\n", True)
def test_hecke_parser_matches_the_row_by_row_reader(header, valid, rows, newline, last):
    text = _csv_text(header, valid + rows, newline, last)
    assert repr(_hecke_outcome(text)) == repr(_hecke_oracle(text))


@settings(max_examples=300, deadline=None)
@given(_hecke_header, _hecke_valid_rows | _hecke_respelled, st.sampled_from(["\n", "\n", "\r\n"]),
       st.booleans())
def test_hecke_parser_matches_the_row_by_row_reader_on_rectangular_files(header, rows, newline,
                                                                         last):
    text = _csv_text(header, rows, newline, last)
    assert repr(_hecke_outcome(text)) == repr(_hecke_oracle(text))


def test_tau_text_takes_the_columnar_read(monkeypatch):
    text = tau_csv_text(2000)
    ints, floats = numeric_columns(text, 1, ("p",))
    tau = generate_tau(2000)
    assert ints[:, 0].tolist() == sorted(tau) and floats[:, 0].tolist() == [
        float(tau[p]) for p in sorted(tau)]

    def row_reader(text):
        raise AssertionError("the row reader ran on a plain tau text")

    monkeypatch.setattr(hecke, "_hecke_rows", row_reader)
    assert parse_hecke_text(text, weight=12).universe.primes == tuple(sorted(tau))


# numpy from 1.23 until that deprecation expired read an int cell such as
# '2.9' as a float, truncated it and warned only by a DeprecationWarning, which
# the default filters hide in library code; under a stand-in for such a
# loadtxt the text must still go to the row reader
@pytest.mark.parametrize("cell", ["2.9", "2.0"])
def test_int_cell_read_via_a_float_goes_to_the_row_reader(monkeypatch, cell):
    loadtxt = np.loadtxt

    def truncating_loadtxt(source, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(io.StringIO(source.getvalue().replace(cell, "2")), **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    text = f"p,a_p\n{cell},-24\n3,252\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert numeric_columns(text, 1, ("p",)) is None
        outcome = _hecke_outcome(text)
    assert repr(outcome) == repr(_hecke_oracle(text))
    assert outcome == ("ParseError", f"bad numeric row [{cell!r}, '-24']")


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
