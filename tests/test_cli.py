import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smolab.cli import main
from smolab.report import Report, canonical_json, emit


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poleline_command(capsys):
    code, out, err = run(capsys, "euler", "poleline", "--q", "4", "--alphas", "2,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["poleline"] == 0.5
    assert doc["experiment"] == "euler.poleline"


def test_eval_command(capsys):
    code, out, _ = run(capsys, "euler", "eval", "--q", "2", "--alphas", "1", "--s", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["values"][0]["re"] == pytest.approx(2.0)


def test_rs_command(capsys):
    code, out, _ = run(capsys, "euler", "rs", "--q", "4", "--alphas", "2",
                       "--betas", "0.5")
    assert code == 0
    doc = json.loads(out)
    # parameters multiply pairwise: 2 * conj(1/2) = 1, so no pole offset
    assert doc["results"]["poleline"] == pytest.approx(0.0)
    assert doc["results"]["alphas"] == [{"re": 1.0, "im": 0.0}]


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["definitely-not-a-command"])
    assert info.value.code == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["euler", "poleline", "--q", "4", "--alphas", "1", "--bogus", "1"])
    assert info.value.code == 2


def test_domain_error_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("p,a_p\n4,5\n")
    code, out, err = run(capsys, "smo", "compare", "--data", str(bad),
                         "--data2", str(bad))
    assert code == 1
    assert "non-prime-row" in err


def test_charlab_extremal_without_witness(capsys, tmp_path):
    group_file = tmp_path / "q8.group"
    group_file.write_text("(1 2 5 6)(3 4 7 8)\n(1 3 5 7)(2 8 6 4)\n")
    code, out, _ = run(capsys, "charlab", "extremal", str(group_file),
                       "--degree", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["witness"] is None


def test_charlab_extremal_catalog_expression(capsys):
    code, out, _ = run(capsys, "charlab", "extremal", "q8_power_family(1)",
                       "--degree", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["fraction"] == "7/8"
    assert doc["results"]["threshold"] == "7/8"


def test_charlab_table_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "charlab", "table", "cyclic(2)")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class_size,1,1"
    assert lines[1] == "1,1.0,1.0"
    assert lines[2] == "1,1.0,-1.0"


def test_density_natural_cli(capsys):
    code, out, _ = run(capsys, "density", "natural", "--selector", "mod:4:1",
                       "--x", "10000,100000")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["extrapolated"] - 0.5) < 0.02


def test_density_dirichlet_cli(capsys):
    code, out, _ = run(capsys, "density", "dirichlet", "--selector", "all",
                       "--s", "1.5,1.25", "--cutoff", "100000")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["extrapolated"] == pytest.approx(1.0)


def test_frobstats_cli(capsys, tmp_path):
    spec = tmp_path / "field.txt"
    spec.write_text("N=4\nH=\n")
    code, out, _ = run(capsys, "frobstats", str(spec), "--x", "100000")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["class_labels"] == [1, 3]


def test_gen_tau_and_compare_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "tau.csv"
    code, _, _ = run(capsys, "data", "gen-tau", "--limit", "200",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("p,a_p\n2,-24\n3,252\n")
    code, out, _ = run(capsys, "smo", "compare", "--data", str(out_path),
                       "--data2", str(out_path), "--x", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["disagreements"] == 0


def test_smo_inert_cli(capsys, tmp_path):
    spec = tmp_path / "field.txt"
    spec.write_text("N=7\nH=6\n")
    code, out, _ = run(capsys, "smo", "inert", "--fieldspec", str(spec),
                       "--n", "2", "--profile", "LRS")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pair_bound"] == "14/15"
    assert doc["results"]["sufficient"] is True


def test_smo_rajan_cli(capsys, tmp_path):
    spec = tmp_path / "field.txt"
    spec.write_text("N=7\nH=6\n")
    code, out, _ = run(capsys, "smo", "rajan", "--fieldspec", str(spec),
                       "--degree", "3", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["verdict"] == "summable"


def test_smo_tower_cli(capsys, tmp_path):
    inner = tmp_path / "inner.txt"
    inner.write_text("N=5\nH=4\n")
    outer = tmp_path / "outer.txt"
    outer.write_text("N=5\nH=\n")
    code, out, _ = run(capsys, "smo", "tower", "--subfield", str(inner),
                       "--field", str(outer), "--x", "10000")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["counterexamples"] == []


def test_output_file_and_byte_stability(capsys, tmp_path):
    target1 = tmp_path / "a.json"
    target2 = tmp_path / "b.json"
    for target in (target1, target2):
        code, _, _ = run(capsys, "--output", str(target), "euler", "poleline",
                         "--q", "9", "--alphas", "3")
        assert code == 0
    assert target1.read_bytes() == target2.read_bytes()


def test_probe_cli(capsys, tmp_path):
    spec = tmp_path / "field.txt"
    spec.write_text("N=4\nH=\n")
    code, out, _ = run(capsys, "euler", "probe", "--fieldspec", str(spec),
                       "--degree", "2", "--delta", "1/4",
                       "--sigma", "0.8,0.7", "--cutoffs", "1e5,1e6")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["analytic_abscissa"] == 0.75


def test_positivity_cli(capsys, tmp_path):
    data = tmp_path / "satake.csv"
    data.write_text("p,q,alpha_re,alpha_im\n2,2,1,0\n3,3,1,0\n5,5,1,0\n")
    code, out, _ = run(capsys, "euler", "positivity", "--data", str(data),
                       "--max-index", "1000")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["positive_type"] is True


# -- report object ---------------------------------------------------------------


def test_report_json_roundtrip():
    report = Report(experiment="x", inputs={"a": 1},
                    payload={"frac": Fraction(7, 8), "z": complex(1, -2),
                             "nested": {"v": [1.5, 2.5]}})
    doc = json.loads(report.to_json())
    assert doc["results"]["frac"] == "7/8"
    assert doc["results"]["z"] == {"re": 1.0, "im": -2.0}
    again = json.loads(canonical_json(doc))
    assert again == doc


def test_fractions_render_as_str():
    assert json.loads(canonical_json(Fraction(1))) == "1"
    assert json.loads(canonical_json(Fraction(7, 8))) == "7/8"


def test_dataclasses_render_by_field():
    @dataclass(frozen=True)
    class Inner:
        z: complex
        keys: dict

    @dataclass(frozen=True)
    class Outer:
        nested: Inner
        first: tuple

    value = Outer(Inner(1 - 2j, {0.5: Fraction(3, 1)}), (1,))
    assert json.loads(canonical_json(value)) == {"nested": {"z": {"re": 1.0, "im": -2.0},
                                                         "keys": {"0.5": "3"}},
                                              "first": [1]}


def _jsonable(value):
    """The former two-pass serializer, kept as the reference for canonical_json."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        value = value.item()
    if isinstance(value, float) and value != value:
        return "nan"
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return value


def _reference_json(value) -> str:
    return json.dumps(_jsonable(value), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class _ByField:
    first: object
    second: object


_floats = st.floats(allow_nan=True, allow_infinity=True)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
    _floats, st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(), st.text(alphabet='"\\/\x00\x01\x1f\x7f\u00e9\u2028\U0001f600 a'),
    st.fractions(), st.complex_numbers(allow_nan=True, allow_infinity=True),
    _floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(np.complex128),
)
# small key pools so that 1 and "1", True and "True" or None and "None" collide
_keys = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(str), st.text(max_size=3),
                  st.sampled_from([0.5, -0.0, float("nan"), True, False, None,
                                   "0.5", "True", "None", "nan"]))
_values = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.lists(st.integers(), max_size=6),
    st.dictionaries(_keys, children, max_size=5),
    st.builds(_ByField, children, children),
), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_canonical_json_matches_reference_encoder(value):
    assert canonical_json(value) == _reference_json(value)


@pytest.mark.parametrize("value", [
    {1: "int", "1": "str"}, {"1": "str", 1: "int"}, [1, True], [True, 1], [0, -1, 2**80],
    [], {}, (), [[], {}, ()], -0.0, np.float64(-0.0), complex(-0.0, float("nan")),
    np.complex128(complex(1.5, float("-inf"))), "\"\\\n\x00\u00e9\U0001f600",
    {None: 1, True: 2, 0.5: 3, "None": 4}, _ByField(np.int64(-7), [np.bool_(True)]),
], ids=repr)
def test_canonical_json_reference_cases(value):
    assert canonical_json(value) == _reference_json(value)


_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, float("nan"),
                                    float("inf"), float("-inf")]),
                   st.floats(allow_nan=True, allow_infinity=True))
# small value pools, so that arrays repeat values, and 0.0 and -0.0 meet
_complex_lists = st.lists(st.builds(complex, _parts, _parts), max_size=12).flatmap(
    lambda vals: st.lists(st.sampled_from(vals), max_size=20) if vals else st.just([]))


@settings(max_examples=300, deadline=None)
@given(_complex_lists, st.integers(1, 3))
def test_complex_array_renders_as_its_values(values, step):
    array = np.array(values, dtype=np.complex128).reshape(-1)
    assert canonical_json(array) == canonical_json(tuple(values))
    # nested at another indent, and through a strided view
    doc = {"rows": [{"values": array[::step]}], "n": 1}
    assert canonical_json(doc) == canonical_json({"rows": [{"values": values[::step]}],
                                                  "n": 1})


@pytest.mark.parametrize("values", [[], [complex(-0.0, 0.0)], [0j, complex(0.0, -0.0)],
                                    [1j, 1j, complex(float("nan"), 1.0), 1j],
                                    [complex(float("inf"), float("-inf"))] * 2], ids=repr)
def test_complex_array_special_parts(values):
    array = np.array(values, dtype=np.complex128)
    assert canonical_json(array) == canonical_json(values) == _reference_json(values)


@pytest.mark.parametrize("value", [{1, 2}, {"a": [frozenset()]}, _ByField(1, {3})])
def test_unserializable_types_raise_like_json_dumps(value):
    with pytest.raises(TypeError):
        _reference_json(value)
    with pytest.raises(TypeError):
        canonical_json(value)


def test_report_digest_stable():
    a = Report(experiment="x", inputs={"a": 1, "b": "two"}, payload={})
    b = Report(experiment="x", inputs={"b": "two", "a": 1}, payload={})
    assert a.inputs_digest == b.inputs_digest


def test_report_csv_grid(tmp_path):
    report = Report(experiment="d", inputs={},
                    payload={"sample_points": [1.5, 1.25],
                             "partial_values": [0.9, 0.95]})
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[2] == "sample_points,partial_values"
    assert lines[3] == "1.5,0.9"


def test_emit_io_error(tmp_path):
    from smolab.errors import IoError
    report = Report(experiment="x", inputs={}, payload={})
    with pytest.raises(IoError):
        emit(report, "json", tmp_path / "missing-dir" / "out.json")


def test_nonpositive_congruence_modulus_is_a_typed_error():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "smolab.cli", "density", "natural",
         "--selector", "mod:0:1", "--x", "1e3"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert re.search(r"^[a-z-]+: \S", proc.stderr, re.MULTILINE), proc.stderr


BAD_ARGV = [
    ("smo", "compare", "--data", "synthetic:x", "--data2", "synthetic:1"),
    ("smo", "compare", "--data", "profile:XX", "--data2", "synthetic:1"),
    ("smo", "compare", "--data", "profile:GJ:z", "--data2", "synthetic:1"),
    ("smo", "zratio", "--data", "synthetic:1", "--data2", "synthetic:2", "--s", "1.0"),
    ("density", "natural", "--selector", "all", "--x", "10,5"),
    ("density", "dirichlet", "--selector", "all", "--s", "3"),
    ("euler", "eval", "--q", "1", "--alphas", "1", "--s", "2"),
    ("euler", "poleline", "--q", "4", "--alphas", "0"),
    ("smo", "poleorder", "--selector", "all", "--eps", "1/8"),
    ("euler", "positivity", "--data", os.devnull),
    ("euler", "eval", "--q", str(10**399), "--alphas", "1", "--s", "2"),
    ("charlab", "table", "direct_product(cyclic(50),cyclic(50))"),
    ("charlab", "table", "cyclic(2000000)"),
    ("charlab", "table", "q8_power_family(5)"),
    ("charlab", "table", "cyclic(2,3)"),
    ("density", "natural", "--selector", "mod:4:1", "--x", ""),
    ("density", "natural", "--selector", "mod:4:1", "--x", "1e400"),
    ("euler", "probe", "--fieldspec", "field.txt", "--degree", "2", "--delta", "1/4",
     "--sigma", "0.8", "--cutoffs", "1e400"),
    ("density", "natural", "--selector", "mod:1000000000000:1", "--x", "100"),
    ("frobstats", "bigfield.txt", "--x", "100"),
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=[" ".join(a[:2]) + f"[{i}]"
                                                for i, a in enumerate(BAD_ARGV)])
def test_bad_values_are_typed_errors(argv, tmp_path):
    (tmp_path / "field.txt").write_text("N=4\nH=\n")
    (tmp_path / "bigfield.txt").write_text("N=100000000000\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "smolab.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert re.search(r"^[a-z-]+: \S", proc.stderr, re.MULTILINE), proc.stderr


def test_huge_moduli_are_refused_before_allocation(capsys, tmp_path):
    # a modulus-sized selector table or (Z/N)* loop would end in a MemoryError
    code, _, err = run(capsys, "density", "natural", "--selector", "mod:1000000000000:1",
                       "--x", "100")
    assert code == 1 and err.startswith("limit-exceeded: congruence modulus capped"), err
    spec = tmp_path / "bigfield.txt"
    spec.write_text("N=100000000000\n")
    code, _, err = run(capsys, "frobstats", str(spec), "--x", "100")
    assert code == 1 and err.startswith("limit-exceeded: field modulus capped"), err


def test_compound_modulus_above_the_lift_cap_is_a_typed_error(tmp_path):
    # lcm(999999937, 4) is near 4e9: the residue lift would not finish
    (tmp_path / "tau.csv").write_text("p,a_p\n2,-24\n3,252\n5,4830\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "smolab.cli", "smo", "tempered", "--data", "tau.csv",
         "--selector", "mod:999999937:1 and mod:4:1"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("limit-exceeded: "), proc.stderr


def test_tower_of_coprime_large_moduli_is_refused_at_once(capsys, tmp_path):
    # the lcm of the two moduli is near 1e12; nesting is decided mod each
    (tmp_path / "f.txt").write_text("N=999983\n")
    (tmp_path / "k.txt").write_text("N=999979\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "smo", "tower", "--subfield", str(tmp_path / "f.txt"),
                       "--field", str(tmp_path / "k.txt"))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err.startswith("not-nested: "), err


def test_malformed_satake_row_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "satake.csv"
    for row in ("3,x,1.0,0.0", "x,3,1.0,0.0", "3,3,1.0,0.0,-5.0", "2,6,1.0,0.0",
                "3,27,1.0", f"2,{10**399},1.0,0.0"):
        bad.write_text(f"p,q,a1_re,a1_im\n2,2,1.0,0.0\n{row}\n")
        code, out, err = run(capsys, "euler", "positivity", "--data", str(bad))
        assert code == 1
        assert err.startswith("parse-error: bad Satake row")


def test_satake_rows_are_places_keyed_by_prime(capsys, tmp_path):
    data = tmp_path / "satake.csv"
    # an inert place at 2 (norm 4, parameter -1) has coefficient -1 at 4
    data.write_text("p,q,a1_re,a1_im\n2,4,-1.0,0.0\n3,3,1.0,0.0\n")
    code, out, _ = run(capsys, "euler", "positivity", "--data", str(data))
    assert code == 0
    assert json.loads(out)["results"] == {"positive_type": False, "first_violation": 4}
    # two places at 3 with parameters +1 and -1: 0 at 3, 1 at 9, 0 at 27, ...
    data.write_text("p,q,a1_re,a1_im\n3,3,1.0,0.0\n5,5,1.0,0.0\n3,3,-1.0,0.0\n")
    code, out, _ = run(capsys, "euler", "positivity", "--data", str(data))
    assert code == 0
    assert json.loads(out)["results"] == {"positive_type": True, "first_violation": None}


def test_satake_row_checks(capsys, tmp_path):
    data = tmp_path / "satake.csv"
    for row, error in (("4,4,1.0,0.0", "non-prime-row: "), ("1,1,1.0,0.0", "usage-error: "),
                       ("3,3,0.0,0.0", "usage-error: ")):
        data.write_text(f"p,q,a1_re,a1_im\n{row}\n")
        code, out, err = run(capsys, "euler", "positivity", "--data", str(data))
        assert code == 1 and err.startswith(error), (row, err)
    # a place of norm 2**1328 lies beyond every allowed index and is left out
    data.write_text(f"p,q,a1_re,a1_im\n2,{2**1328},-1.0,0.0\n3,9,1.0,0.0\n")
    code, out, _ = run(capsys, "euler", "positivity", "--data", str(data))
    assert code == 0 and json.loads(out)["results"]["positive_type"] is True


@pytest.mark.parametrize("rows,error", [
    # a non-prime row before a malformed, q-not-a-power or bad-norm row wins
    ("5,5,1.0,0.0\n4,4,1.0,0.0\n7,x,1.0,0.0\n", "non-prime-row: row prime 4 "),
    ("5,5,1.0,0.0\n4,4,1.0,0.0\n7,7,1.0\n", "non-prime-row: row prime 4 "),
    ("5,5,1.0,0.0\n4,4,1.0,0.0\n7,49,1.0,0.0\n7,8,1.0,0.0\n", "non-prime-row: row prime 4 "),
    ("5,5,1.0,0.0\n9,9,1.0,0.0\n7,1,1.0,0.0\n", "non-prime-row: row prime 9 "),
    ("5,5,1.0,0.0\n9,9,1.0,0.0\n7,7,0.0,0.0\n", "non-prime-row: row prime 9 "),
    # and loses to one before it
    ("5,5,1.0,0.0\n7,x,1.0,0.0\n4,4,1.0,0.0\n", "parse-error: bad Satake row ['7', 'x', "),
    ("5,5,1.0,0.0\n7,7,1.0\n4,4,1.0,0.0\n", "parse-error: bad Satake row ['7', '7', '1.0'] "),
    ("5,5,1.0,0.0\n7,8,1.0,0.0\n4,4,1.0,0.0\n", "parse-error: bad Satake row ['7', '8', "),
    ("5,5,1.0,0.0\n7,1,1.0,0.0\n9,9,1.0,0.0\n", "usage-error: norm must be >= 2, got 1"),
    ("5,5,1.0,0.0\n7,7,0.0,0.0\n9,9,1.0,0.0\n", "usage-error: local parameters must be nonzero"),
])
def test_satake_first_faulty_row_raises(capsys, tmp_path, rows, error):
    data = tmp_path / "satake.csv"
    data.write_text("p,q,a1_re,a1_im\n" + rows)
    code, out, err = run(capsys, "euler", "positivity", "--data", str(data))
    assert code == 1 and err.startswith(error), (rows, err)


@pytest.mark.parametrize("point", ["32768", "9" * 5000], ids=["32768", "5000-digits"])
def test_group_file_point_above_int16_is_a_typed_error(tmp_path, point):
    group = tmp_path / "big.txt"
    group.write_text(f"(1 {point})\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "smolab.cli", "charlab", "table", str(group)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("invalid-permutation: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_group_file_is_an_io_error(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "smolab.cli", "charlab", "table",
                           "groups/missing.txt"], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("io-error: "), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_output_is_an_io_error_in_both_formats(tmp_path, fmt):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "smolab.cli", "--format", fmt,
                           "--output", f"missing/t.{fmt}", "charlab", "table", "cyclic(2)"],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"io-error: cannot write missing/t.{fmt}: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_workers_flag_leaves_the_environment_alone(capsys, monkeypatch):
    monkeypatch.delenv("SMOLAB_WORKERS", raising=False)
    code, out, _ = run(capsys, "--workers", "4", "density", "natural",
                       "--selector", "all", "--x", "1e3")
    assert code == 0 and out
    assert "SMOLAB_WORKERS" not in os.environ
