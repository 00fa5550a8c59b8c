import json
import math
import os
import re
import csv
import io
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smolab import cli, euler, hecke
from smolab.cli import main
from smolab.errors import NonPrimeRow, ParseError, SmolabError, UsageError
from smolab.report import Report, canonical_json, emit
from smolab.sieve import is_prime
from smolab.tau import tau_csv_text


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    try:
        argv = ("euler", "poleline", "--q", "4", "--alphas", "2,0.5")
        first, second = run(capsys, *argv), run(capsys, *argv)
    finally:
        cli._parser.cache_clear()  # the next test builds the real parser again
    assert builds == [1]
    assert first == second and first[0] == 0


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


def test_prime_list_selector_counts_distinct_primes(capsys, tmp_path):
    listfile = tmp_path / "primes.txt"
    listfile.write_text("5\n7\n7\n")
    code, out, _ = run(capsys, "density", "natural", "--selector", f"list:{listfile}",
                       "--x", "100")
    assert code == 0
    diagnostics = json.loads(out)["results"]["diagnostics"]
    assert diagnostics["selector"] == "list:[2 primes]"
    assert diagnostics["selected_counts"] == [2]


def test_prime_list_selector_refuses_a_composite_entry(capsys, tmp_path):
    listfile = tmp_path / "primes.txt"
    listfile.write_text("5\n7\n7\n4\n")
    code, out, err = run(capsys, "density", "natural", "--selector", f"list:{listfile}",
                         "--x", "100")
    assert code == 1 and out == ""
    assert err.startswith(f"non-prime-row: entry 4 in prime list {listfile} is not prime")


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
    ("density", "natural", "--selector", "list:biglist.txt", "--x", "100"),
    ("data", "gen-tau", "--limit", "-3"),
    ("charlab", "extremal", "cyclic(4)", "--degree", "0"),
    ("charlab", "table", ""),
    ("smo", "poleorder", "--selector", "mod:4:1", "--eps", "1/8,1/8,1/8"),
    ("smo", "rajan", "--fieldspec", "field.txt", "--degree", "1", "--n", "0"),
    ("smo", "rajan", "--fieldspec", "field.txt", "--degree", "1", "--n", "-1"),
    ("smo", "inert", "--fieldspec", "field.txt", "--n", "0", "--profile", "LRS"),
    ("euler", "probe", "--fieldspec", "field.txt", "--degree", "2", "--delta", "1/4",
     "--sigma", "0.8", "--cutoffs=-5"),
    ("euler", "probe", "--fieldspec", "field.txt", "--degree", "2", "--delta", "1/4",
     "--sigma", "", "--cutoffs", "10000"),
    ("smo", "zratio", "--data", "synthetic:1", "--data2", "synthetic:2", "--s", "nan"),
    ("smo", "zratio", "--data", "synthetic:1", "--data2", "synthetic:2", "--s", "1.5,inf"),
    ("euler", "probe", "--fieldspec", "field.txt", "--degree", "2", "--delta", "1/4",
     "--sigma", "nan", "--cutoffs", "10000"),
    ("euler", "eval", "--q", "4", "--alphas", "1", "--s", "nan"),
    ("euler", "eval", "--q", "4", "--alphas", "nan", "--s", "2"),
    ("euler", "eval", "--q", "4", "--alphas", "inf", "--s", "2"),
    ("density", "natural", "--selector", "(" * 400 + "all" + ")" * 400, "--x", "100"),
    ("density", "natural", "--selector", " and ".join(["mod:4:1"] * 1000), "--x", "100"),
    ("charlab", "table", "direct_product(cyclic(1)," * 1000 + "cyclic(2)" + ")" * 1000),
    ("euler", "positivity", "--data", "nan_satake.csv", "--max-index", "100"),
    ("euler", "positivity", "--data", "inf_satake.csv", "--max-index", "100"),
    ("smo", "zratio", "--data", "nan_tau.csv", "--data2", "synthetic:1", "--selector", "all",
     "--s", "1.5"),
    ("smo", "tempered", "--data", "inf_tau.csv", "--selector", "all"),
    ("charlab", "table", "cyclic(" + "9" * 5000 + ")"),
    ("smo", "tempered", "--data", "big_tau.csv", "--selector", "mod:8:1"),
    ("euler", "positivity", "--data", "big_satake.csv", "--max-index", "100"),
    ("density", "natural", "--selector", "mod:4:1", "--x", "1000.9,2.5e3"),
    ("euler", "probe", "--fieldspec", "field.txt", "--degree", "2", "--delta", "1/4",
     "--sigma", "0.8", "--cutoffs", "1.5,10.7"),
    ("smo", "compare", "--data", "tau200.csv", "--data2", "synthetic:1", "--weight", "300"),
    ("smo", "tempered", "--data", "tau200.csv", "--selector", "all", "--weight", "-300"),
    ("smo", "zratio", "--data", "tau200.csv", "--data2", "synthetic:1", "--weight", "2"),
    ("smo", "zratio", "--data", "huge_tau.csv", "--data2", "synthetic:1", "--weight", "1"),
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=[" ".join(a[:2]) + f"[{i}]"
                                                for i, a in enumerate(BAD_ARGV)])
def test_bad_values_are_typed_errors(argv, tmp_path):
    (tmp_path / "field.txt").write_text("N=4\nH=\n")
    (tmp_path / "bigfield.txt").write_text("N=100000000000\n")
    (tmp_path / "biglist.txt").write_text(f"5\n{2**127 - 1}\n")
    (tmp_path / "nan_satake.csv").write_text("p,q,a1_re,a1_im\n2,2,nan,0,1,0\n")
    (tmp_path / "inf_satake.csv").write_text("p,q,a1_re,a1_im\n2,2,1e400,0,1,0\n")
    (tmp_path / "nan_tau.csv").write_text("2,nan\n3,252\n")
    (tmp_path / "inf_tau.csv").write_text("2,1e400\n3,252\n")
    (tmp_path / "huge_tau.csv").write_text("2,1e200\n3,252\n")
    (tmp_path / "big_tau.csv").write_text(f"p,a_p\n2,-24\n{'7' * 140000},1\n")
    (tmp_path / "big_satake.csv").write_text(f"p,q,a1_re,a1_im\n2,2,1.0,0.0\n3,{'3' * 140000},1,0\n")
    (tmp_path / "tau200.csv").write_text(tau_csv_text(200))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "smolab.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert re.search(r"^[a-z-]+: \S", proc.stderr, re.MULTILINE), proc.stderr


def test_non_finite_file_values_are_parse_errors(capsys, tmp_path):
    # each exited 0 with a verdict drawn from nan or inf, some after numpy warnings
    satake, tau = tmp_path / "satake.csv", tmp_path / "tau.csv"
    for path, text, argv, message in (
            (satake, "p,q,a1_re,a1_im\n2,2,nan,0,1,0\n",
             ("euler", "positivity", "--data", str(satake), "--max-index", "100"),
             f"parse-error: bad Satake row ['2', '2', 'nan', '0', '1', '0'] in {satake}: "
             "non-finite parameter"),
            (satake, "p,q,a1_re,a1_im\n2,2,1.0,0.0\n3,3,1e400,0,1,0\n4,4,1.0,0.0\n",
             ("euler", "positivity", "--data", str(satake), "--max-index", "100"),
             f"parse-error: bad Satake row ['3', '3', '1e400', '0', '1', '0'] in {satake}: "
             "non-finite parameter"),
            # a non-prime row before the non-finite one wins
            (satake, "p,q,a1_re,a1_im\n4,4,1.0,0.0\n3,3,-inf,0\n",
             ("euler", "positivity", "--data", str(satake), "--max-index", "100"),
             f"non-prime-row: row prime 4 in {satake} is not prime"),
            (tau, "2,nan\n3,252\n",
             ("smo", "zratio", "--data", str(tau), "--data2", "synthetic:1", "--selector", "all",
              "--s", "1.5"), "parse-error: non-finite a_p in row ['2', 'nan']"),
            (tau, "2,1e400\n3,252\n", ("smo", "tempered", "--data", str(tau), "--selector", "all"),
             "parse-error: non-finite a_p in row ['2', '1e400']")):
        path.write_text(text)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message + "\n"), (argv, err)


def test_parameters_beyond_the_wall_are_not_tempered(capsys, tmp_path):
    # zratio exited 0 with nan values after overflow warnings, and tempered
    # reached its verdict after one
    tau200, huge = tmp_path / "tau200.csv", tmp_path / "huge.csv"
    tau200.write_text(tau_csv_text(200))
    huge.write_text("2,1e200\n3,252\n")
    for argv, message in (
            (("smo", "zratio", "--data", str(tau200), "--data2", "synthetic:1", "--weight", "2"),
             "not-tempered: tau200: |parameter| = 16.9114 > sqrt(2) at p=2"),
            (("smo", "zratio", "--data", str(huge), "--data2", "synthetic:1", "--weight", "1"),
             "not-tempered: huge: |parameter| = inf > sqrt(2) at p=2"),
            (("smo", "tempered", "--data", str(huge), "--selector", "all", "--weight", "1"),
             "not-tempered: huge: |parameter| = inf > sqrt(2) at p=2")):
        assert run(capsys, *argv) == (1, "", message + "\n"), argv


def test_oversized_satake_cell_is_a_parse_error(capsys, tmp_path):
    # ended in a csv.Error traceback; a faulty row before it still wins
    satake, big, zeros = tmp_path / "satake.csv", "3" * 140000, "0" * 140000
    argv = ("euler", "positivity", "--data", str(satake), "--max-index", "100")
    for text, message in (
            (f"p,q,a1_re,a1_im\n2,2,1.0,0.0\n3,{big},1.0,0.0\n5,5,1.0,0.0\n",
             f"parse-error: bad Satake row at line 3 in {satake}: "
             "field larger than field limit (131072)"),
            (f"p,q,a1_re,a1_im\n2,2,1.0,0.0\n3,3,{big}\n",
             f"parse-error: bad Satake row at line 3 in {satake}: "
             "field larger than field limit (131072)"),
            (f"p,q,a1_re,a1_im\n4,4,1.0,0.0\n3,{big},1.0,0.0\n",
             f"non-prime-row: row prime 4 in {satake} is not prime"),
            (f"p,q,a1_re,a1_im\n2,2,1.0\n3,{big},1.0,0.0\n",
             f"parse-error: bad Satake row ['2', '2', '1.0'] in {satake}: "
             "odd parameter column count"),
            # a valid parameter past the limit, which np.loadtxt reads and csv.reader
            # does not: the verdict is the row reader's whether a faulty row follows
            (f"p,q,a1_re,a1_im\n2,2,1.{zeros},0.0\n3,3,1.0,0.0\n",
             f"parse-error: bad Satake row at line 2 in {satake}: "
             "field larger than field limit (131072)"),
            (f"p,q,a1_re,a1_im\n2,2,1.{zeros},0.0\n3,3,1.0,0.0\n4,4,1.0,0.0\n",
             f"parse-error: bad Satake row at line 2 in {satake}: "
             "field larger than field limit (131072)")):
        satake.write_text(text)
        assert run(capsys, *argv) == (1, "", message + "\n")


def test_benchmark_tracer_sees_the_file_parse(capsys, tmp_path, monkeypatch):
    # perfbench/tracer.py times the eigenvalue parse and the report emission by
    # patching cli.load_hecke and cli.emit, so the CLI must keep calling both there
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import SPAN_NAMES, Tracer

    tau, satake = tmp_path / "tau.csv", tmp_path / "satake.csv"
    tau.write_text(tau_csv_text(200))
    satake.write_text("p,q,a1_re,a1_im\n2,2,1.0,0.0\n3,3,-1.0,0.0\n")
    tracer = Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        for argv in (("smo", "tempered", "--data", str(tau), "--selector", "mod:8:1"),
                     ("euler", "positivity", "--data", str(satake))):
            assert run(capsys, "--workers", "1", *argv)[0] == 0, argv
    finally:
        tracer.uninstall()
    spans = [SPAN_NAMES[i] for i in tracer.spans()["name"]]
    assert spans.count("hecke.parse") == 1 and spans.count("report.emit") == 2
    assert ("load_hecke" in (attr for _, attr, _ in patches)
            and all(vars(owner)[attr] is original for owner, attr, original in patches))


def test_non_finite_numbers_are_usage_errors(capsys, tmp_path):
    # each exited 0 with "nan" values or a sigma labelled "growing"
    field = tmp_path / "field.txt"
    field.write_text("N=4\nH=\n")
    for argv, message in (
            (("smo", "zratio", "--data", "synthetic:1", "--data2", "synthetic:2", "--s", "inf"),
             "usage-error: number list 'inf' is not finite"),
            (("euler", "probe", "--fieldspec", str(field), "--degree", "2", "--delta", "1/4",
              "--sigma", "0.8,nan"), "usage-error: number list '0.8,nan' is not finite"),
            (("euler", "eval", "--q", "4", "--alphas", "1", "--s", "2, NaN"),
             "usage-error: complex number 'NaN' is not finite"),
            # the token as typed, not the 'jnf' that the i -> j rewrite makes of it
            (("euler", "eval", "--q", "4", "--alphas", "inf", "--s", "2"),
             "usage-error: cannot parse complex number 'inf'")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err == message + "\n", (argv, err)


def test_non_integral_list_values_are_usage_errors(capsys, tmp_path):
    # each exited 0 with its values truncated: --x as 1000 and 2500, the
    # cutoffs as 1 and 10 while the inputs echoed "1.5,10.7"
    field = tmp_path / "field.txt"
    field.write_text("N=4\nH=\n")
    for argv, text in (
            (("density", "natural", "--selector", "mod:4:1", "--x", "1000.9,2.5e3"),
             "1000.9,2.5e3"),
            (("euler", "probe", "--fieldspec", str(field), "--degree", "2", "--delta", "1/4",
              "--sigma", "0.8", "--cutoffs", "1.5,10.7"), "1.5,10.7")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"usage-error: cannot parse integer list {text!r}\n")
    code, out, _ = run(capsys, "density", "natural", "--selector", "mod:4:1", "--x", "1e3,2.5e3")
    assert code == 0 and json.loads(out)["results"]["sample_points"] == [1000.0, 2500.0]


def test_integer_lists_keep_integers_above_2_to_the_53(capsys):
    # the limit was read through float, and the message said "got 9007199254740992"
    code, out, err = run(capsys, "density", "natural", "--selector", "all",
                         "--x", "9007199254740993")
    assert (code, out) == (1, "")
    assert err == ("limit-exceeded: prime enumeration capped at 1000000000, "
                   "got 9007199254740993\n")


def test_weights_that_do_not_normalize_are_usage_errors(capsys, tmp_path):
    # 300 ended in an OverflowError traceback from p**149.5, and -300 exited 0
    # with inf and nan parameters after numpy warnings
    tau = tmp_path / "tau.csv"
    tau.write_text(tau_csv_text(200))
    for weight, p, half in (("300", 127, "149.5"), ("-300", 97, "-150.5")):
        for argv in (("compare", "--data2", "synthetic:1"), ("zratio", "--data2", "synthetic:1"),
                     ("tempered", "--selector", "all")):
            code, out, err = run(capsys, "smo", argv[0], "--data", str(tau), *argv[1:],
                                 "--weight", weight)
            assert (code, out) == (1, ""), argv
            assert err == (f"usage-error: weight {weight} does not normalize a_p at p={p}: "
                           f"p^{half} or a_p / p^{half} leaves the float range\n")


def test_fractions_too_large_for_a_float_are_usage_errors(capsys, tmp_path):
    # each ended in an OverflowError traceback where the experiment took the float
    field = tmp_path / "field.txt"
    field.write_text("N=7\nH=6\n")
    for argv in (("smo", "poleorder", "--selector", "mod:4:1", "--eps", "1e400,1/12,1/8"),
                 ("smo", "inert", "--fieldspec", str(field), "--n", "2", "--delta", "1e400"),
                 ("euler", "probe", "--fieldspec", str(field), "--degree", "3",
                  "--delta", "1e400", "--sigma", "0.8", "--cutoffs", "1000")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "usage-error: fraction '1e400' is too large "
                                           "for a float\n"), argv


def test_import_loads_no_serializer_hasher_argument_parser_or_fft():
    # import time is the benchmark's setup_s on every workload: report.py,
    # tau.py and the command line load these on first use
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, smolab; print([m for m in ('json', 'hashlib', 'argparse', 'numpy.fft')"
             " if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


_NOT_UTF8 = {"field.txt": b"N=4\nH=\xff\n", "tau.csv": b"p,a_p\n2,-24\n\xff,1\n",
             "satake.csv": b"p,q,a1_re,a1_im\n2,2,1.0,0.0\n\xff\n", "group.txt": b"(1 2\xff)\n"}


@pytest.mark.parametrize("argv", [
    ("frobstats", "field.txt"),
    ("smo", "rajan", "--fieldspec", "field.txt", "--degree", "1"),
    ("density", "natural", "--selector", "degree:field.txt:1", "--x", "100"),
    ("smo", "compare", "--data", "tau.csv", "--data2", "synthetic:1"),
    ("euler", "positivity", "--data", "satake.csv"),
    ("charlab", "table", "group.txt"),
], ids=lambda argv: " ".join(argv[:2]))
def test_input_files_that_are_not_utf8_are_parse_errors(tmp_path, argv):
    for name, data in _NOT_UTF8.items():
        (tmp_path / name).write_bytes(data)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "smolab.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse-error: "), proc.stderr


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def run_cli(argv, cwd, **env) -> subprocess.CompletedProcess:
    """``python -m smolab.cli`` on argv (bytes arguments are passed as they
    are), with ``env`` over the environment; output is left as bytes."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "smolab.cli", *argv], cwd=cwd,
                          capture_output=True, env=env, timeout=120)


def test_utf8_field_spec_reads_the_same_under_an_ascii_locale(tmp_path):
    (tmp_path / "field.txt").write_bytes("N=5\nH=1,4  # the real quadratic field — Q(√5)\n".encode())
    argv = ("frobstats", "field.txt", "--x", "1000")
    utf8, ascii_ = run_cli(argv, tmp_path, PYTHONUTF8="1"), run_cli(argv, tmp_path, **ASCII_LOCALE)
    assert utf8.returncode == 0 and utf8.stdout, utf8.stderr
    assert (ascii_.returncode, ascii_.stdout, ascii_.stderr) == (0, utf8.stdout, b"")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_ascii_paths_give_the_same_bytes_under_an_ascii_locale(tmp_path, fmt):
    # bytes paths and arguments, so this test also runs under an ASCII locale
    name = "é2.txt".encode()
    with open(os.path.join(os.fsencode(tmp_path), name), "wb") as handle:
        handle.write(b"N=5\nH=1,4\n")
    outputs = []
    for env in ({"PYTHONUTF8": "1"}, ASCII_LOCALE):
        for out in (f"out-{len(outputs)}.{fmt}".encode(), b"-"):  # a file, then stdout
            proc = run_cli([b"--format", fmt.encode(), b"--output", out, b"frobstats", name,
                            b"--x", b"1000"], tmp_path, **env)
            assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
            if out == b"-":
                outputs.append(proc.stdout)
                continue
            with open(os.path.join(os.fsencode(tmp_path), out), "rb") as handle:
                outputs.append(handle.read())
    assert outputs[0] and outputs.count(outputs[0]) == 4
    assert name in outputs[0] if fmt == "csv" else b"\\u00e92.txt" in outputs[0]


def test_error_lines_are_utf8_under_an_ascii_locale(tmp_path):
    # a missing file named in the error line, as the bytes it was given in
    for env in ({"PYTHONUTF8": "1"}, ASCII_LOCALE):
        proc = run_cli(["frobstats", "é3.txt".encode()], tmp_path, **env)
        assert (proc.returncode, proc.stdout) == (1, b""), proc.stderr
        assert proc.stderr.startswith(b"io-error: cannot read \xc3\xa93.txt: "), proc.stderr
        assert proc.stderr.count(b"\n") == 1, proc.stderr


# each file argument once, "{}" standing for it; the other files are valid
FILE_ARGUMENTS = [
    ("charlab", "table", "{}"),
    ("frobstats", "{}", "--x", "100"),
    ("euler", "probe", "--fieldspec", "{}", "--degree", "1", "--delta", "1/4",
     "--sigma", "0.8", "--cutoffs", "1000"),
    ("euler", "positivity", "--data", "{}"),
    ("smo", "rajan", "--fieldspec", "{}", "--degree", "1"),
    ("smo", "inert", "--fieldspec", "{}"),
    ("smo", "tower", "--subfield", "{}", "--field", "field4.txt", "--x", "100"),
    ("smo", "tower", "--subfield", "field.txt", "--field", "{}", "--x", "100"),
    ("smo", "compare", "--data", "{}", "--data2", "ok.csv"),
    ("smo", "compare", "--data", "ok.csv", "--data2", "{}"),
    ("smo", "zratio", "--data", "{}", "--data2", "ok.csv"),
    ("smo", "zratio", "--data", "ok.csv", "--data2", "{}"),
    ("smo", "tempered", "--data", "{}", "--selector", "all"),
    ("density", "natural", "--selector", "degree:{}:1", "--x", "100"),
    ("density", "natural", "--selector", "list:{}", "--x", "100"),
]


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("argv", FILE_ARGUMENTS,
                         ids=[" ".join(a[:2]) + f"[{i}]" for i, a in enumerate(FILE_ARGUMENTS)])
def test_every_file_error_is_one_line_naming_its_file(capsys, tmp_path, monkeypatch, argv, kind):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "field.txt").write_text("N=5\nH=1,4\n")
    (tmp_path / "field4.txt").write_text("N=5\nH=1\n")
    (tmp_path / "ok.csv").write_text("p,a_p\n2,-24\n3,252\n")
    (tmp_path / "bad.d").mkdir()
    (tmp_path / "bad.txt").write_bytes(b"N=5\n# \xff\n")
    path = {"missing": "missing.txt", "directory": "bad.d", "not-utf8": "bad.txt"}[kind]
    code, out, err = run(capsys, *(a.replace("{}", path) for a in argv))
    assert (code, out) == (1, ""), err
    code = "parse-error" if kind == "not-utf8" else "io-error"
    assert re.fullmatch(code + r": [^\n]*\n", err), err
    assert err.count(path) == 1, err


def test_huge_moduli_are_refused_before_allocation(capsys, tmp_path):
    # a modulus-sized selector table or (Z/N)* loop would end in a MemoryError
    code, _, err = run(capsys, "density", "natural", "--selector", "mod:1000000000000:1",
                       "--x", "100")
    assert code == 1 and err.startswith("limit-exceeded: congruence modulus capped"), err
    spec = tmp_path / "bigfield.txt"
    spec.write_text("N=100000000000\n")
    code, _, err = run(capsys, "frobstats", str(spec), "--x", "100")
    assert code == 1 and err.startswith("limit-exceeded: field modulus capped"), err


def test_values_that_would_exit_zero_or_overflow_are_refused(capsys, tmp_path):
    # a header-only tau file, a note about degree-0 characters and an int64
    # overflow in the list selector were the old outcomes
    code, _, err = run(capsys, "data", "gen-tau", "--limit", "-3",
                       "--out", str(tmp_path / "tau.csv"))
    assert code == 1 and err.startswith("usage-error: tau limit"), err
    assert not (tmp_path / "tau.csv").exists()
    code, _, err = run(capsys, "charlab", "extremal", "cyclic(4)", "--degree", "0")
    assert code == 1 and err.startswith("usage-error: character degree"), err
    (tmp_path / "biglist.txt").write_text(f"5\n{2**127 - 1}\n")
    code, _, err = run(capsys, "density", "natural", "--selector",
                       f"list:{tmp_path / 'biglist.txt'}", "--x", "100")
    assert code == 1 and err.startswith("limit-exceeded: "), err


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


def _norm_exponent(p: int, q: int) -> int | None:
    """f with q == p**f exactly, or None when q is not a power of p."""
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    return f if q == 1 and f else None


def _read_satake_row(row: list[str], path: str) -> tuple[int, int, list[float]]:
    """(p, q, parameter parts) of a Satake row, with the checks that need no prime."""
    try:
        p, q = int(row[0]), int(row[1])
        parts = [float(x) for x in row[2:]]
    except (IndexError, ValueError):
        raise ParseError(f"bad Satake row {row!r} in {path}")
    if not all(math.isfinite(x) for x in parts):
        raise ParseError(f"bad Satake row {row!r} in {path}: non-finite parameter")
    if len(parts) % 2:
        raise ParseError(f"bad Satake row {row!r} in {path}: odd parameter column count")
    if q < 2:
        raise UsageError(f"norm must be >= 2, got {q}")
    return p, q, parts


def _first_satake_fault(rows: list[list[str]], path: str) -> SmolabError | None:
    """The error of the first faulty Satake row, in row order: the row-by-row
    finder the loader once ran after its array pass, kept as the oracle.

    The rows are read up to the first fault other than a non-prime p, then
    checked prime one by one; within a row, the prime check comes after the
    columns and the norm and before the place checks.
    """
    row_primes, fault = [], None
    for row in rows:
        try:
            p, q, parts = _read_satake_row(row, path)
        except SmolabError as exc:
            fault = exc
            break
        row_primes.append(p)
        if p < 2:  # not prime, and q // p would not end
            continue
        if _norm_exponent(p, q) is None:
            fault = ParseError(f"bad Satake row {row!r} in {path}: {q} is not a power of {p}")
            break
        if any(complex(re, im) == 0 for re, im in zip(parts[0::2], parts[1::2])):
            fault = UsageError("local parameters must be nonzero")
            break
    for p in row_primes:  # the scalar test: the loader's column test is under check
        if not is_prime(p):
            return NonPrimeRow(f"row prime {p} in {path} is not prime")
    return fault


def _satake_oracle(path: str):
    """The row-by-row outcome of a Satake file: (code, message) of its first
    fault, or the (exponents, parameters) lists of every kept place by prime,
    places in file order, zero-padded."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle)
                if row and row[0].strip().lower() not in ("p", "#")]
    fault = _first_satake_fault(rows, path)
    if fault is None and not rows:
        fault = ParseError(f"no Satake rows in {path}")
    if fault is not None:
        return fault.code, str(fault)
    places = {}
    for row in rows:
        p, q, parts = _read_satake_row(row, path)
        if parts and q <= euler.LOG_INDEX_LIMIT:
            alphas = [complex(re, im) for re, im in zip(parts[0::2], parts[1::2])]
            places.setdefault(p, []).append((_norm_exponent(p, q), alphas))
    depth = max(map(len, places.values()), default=0)
    width = max((len(a) for cells in places.values() for _, a in cells), default=0)
    exps, params = [], []
    for p in sorted(places):
        cells = places[p] + [(0, [])] * (depth - len(places[p]))
        exps.append([f for f, _ in cells])
        params.append([a + [0j] * (width - len(a)) for _, a in cells])
    return exps, params


def _satake_outcome(path: str):
    try:
        product = hecke.load_satake(path)
    except SmolabError as exc:
        return exc.code, str(exc)
    exps, params = product.places(np.array(sorted(product.universe.primes), dtype=np.int64))
    return exps.tolist(), params.tolist()


# primes, non-primes below 2 and above, and a prime and a non-prime above int64
_SATAKE_P = [2, 3, 5, 97, 2**61 - 1, 2**89 - 1, 1, 0, -3, 4, 9, 2**64 + 1]
# parameter pairs: nonzero, zero, unparseable, non-finite, a lone cell for an
# odd count, and spellings where Python's float() and numpy's parser may part
# ('1_0' and Arabic-Indic digits only Python reads, '\x1c' only numpy strips)
_satake_cells = st.lists(st.sampled_from([["1.0", "0.0"], ["0.25", "-0.5"], ["0.0", "-0.0"],
                                          ["-0.0", "0"], ["x", "1.0"], ["", "1.0"], ["2"],
                                          ["nan", "0"], ["1.0", "-inf"], ["1e400", "0"],
                                          ["1_0", "0"], ["١", "0"], [" 1 ", "+0"],
                                          ["1\x1c", "0"], ["\xa01", "0"], ['"1.0"', "0"]]),
                         max_size=3).map(lambda pairs: sum(pairs, []))
_satake_valid_row = st.builds(
    lambda p, f, cells: [str(p), str(p**f)] + cells,
    st.sampled_from([2, 3, 5, 97]), st.integers(1, 3),
    st.lists(st.sampled_from([["1.0", "0.0"], ["0.25", "-0.5"]]), max_size=2).map(
        lambda pairs: sum(pairs, [])))
_satake_any_row = st.builds(
    lambda p, q, cells, cut: ([str(p), str(q(p))] + cells)[:cut],
    st.sampled_from(_SATAKE_P),
    # a power of p, not one, below 2, or above int64
    st.sampled_from([lambda p: p, lambda p: p**3, lambda p: p + 1, lambda p: 8,
                     lambda p: 1, lambda p: 0, lambda p: 2**64]),
    _satake_cells, st.sampled_from([0, 1, 2, 99, 99, 99])) | st.sampled_from([
    # p and q spelled as int() reads them and numpy may not, or the other way
    ["1_1", "11", "1.0", "0.0"], ["٣", "9", "1.0", "0.0"], [" 5 ", "+5", "1.0", "0.0"],
    ["5\x1c", "5", "1.0", "0.0"], ["\xa05", "25", "1.0", "0.0"], ['"7"', "7", "1.0", "0.0"],
    ["007", "49", "0.5", "0.5"], ["3", "3.0", "1.0", "0.0"],
    # a header or comment row mid-file, a whitespace-only row, a wider row
    ["p", "q"], ["#", "x"], [" P ", "7", "1"], [" "], ["2", "2", "1.0", "0.0", "1.0", "0.0"]])
# rows of one width with valid cells, files that np.loadtxt reads whole, but
# for a lone last cell in every row when the width is odd
_satake_rectangular = st.tuples(st.integers(1, 3), st.sampled_from([[], [], ["1.0"]])).flatmap(
    lambda shape: st.lists(st.builds(
        lambda p, f, cells: [str(p), str(p**f)] + cells + shape[1],
        st.sampled_from([2, 3, 5, 97, 2**31 - 1]), st.integers(1, 3),
        st.lists(st.sampled_from([["1.0", "0.0"], ["0.25", "-0.5"], ["-0.0", "1e-3"],
                                  ["3", "-0"]]),
                 min_size=shape[0], max_size=shape[0]).map(lambda pairs: sum(pairs, []))),
        min_size=1, max_size=5))


@st.composite
def _respelled(draw, rows, spellings):
    """Rows with one cell replaced by a spelling drawn from ``spellings(column)``."""
    rows = draw(rows)
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    rows[i] = rows[i][:j] + [draw(spellings(j))] + rows[i][j + 1:]
    return rows


# one faulty or oddly spelled cell in a file np.loadtxt would read whole: a
# non-prime p, q below 2 or not a power of p, a non-finite or zero parameter,
# which only the array checks of the columnar read can find, and cells it
# must hand to the row reader
_satake_respelled = _respelled(_satake_rectangular, lambda column: st.sampled_from(
    ["1", "0", "4", "8", "-3", "x", "", "p", "#", "1_1", "٣", " 5 ", "+5", "5\x1c", "\xa05",
     '"7"', "2.0", str(2**63), str(2**61 - 1)] if column < 2 else
    ["nan", "-inf", "1e400", "0", "-0.0", "x", "", "1_0", "١", " 1 ", "+5", "1\x1c", "\xa01",
     '"2.5"']))


# valid rows first, so that the first faulty row falls anywhere in the file
@settings(max_examples=300, deadline=None)
@given(st.lists(_satake_valid_row, max_size=4),
       st.lists(_satake_any_row | _satake_valid_row, max_size=4), st.booleans())
@example([["3", "3", "1.0", "0.0"]], [["3", "8", "0.0", "0.0"], ["4", "4"]], True)
@example([["2", str(2**64), "1.0", "0.0"]], [[str(2**89 - 1), "5"], ["7", "7", "x"]], False)
def test_satake_loader_matches_the_row_by_row_finder(valid, rows, header):
    lines = (["p,q,a1_re,a1_im"] if header else []) + [",".join(row) for row in valid + rows]
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "satake.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert repr(_satake_outcome(path)) == repr(_satake_oracle(path))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "p,q,a1_re,a1_im", "#,comment"]),
       _satake_rectangular | _satake_respelled, st.sampled_from(["\n", "\n", "\r\n"]),
       st.booleans())
def test_satake_loader_matches_the_row_by_row_finder_on_rectangular_files(
        header, rows, newline, last):
    lines = ([header] if header else []) + [",".join(row) for row in rows]
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "satake.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(newline.join(lines) + (newline if last else ""))
        assert repr(_satake_outcome(path)) == repr(_satake_oracle(path))


def test_workload_shaped_satake_file_takes_the_columnar_read(tmp_path, monkeypatch):
    # eight parameters per row, as in the benchmark's self-pairing file
    lines = ["p,q," + ",".join(f"a{i}_{part}" for i in range(1, 5) for part in ("re", "im"))]
    for p in (2, 3, 5, 7, 11, 13):
        c, s = math.cos(p), math.sin(p)
        lines.append(",".join([str(p), str(p)] + [repr(v) for v in
                                                  (1.0, 0.0, c, s, c, -s, 1.0, 0.0)]))
    text = "\n".join(lines) + "\n"
    ints, floats = hecke.numeric_columns(text, 2, ("p", "#"))
    assert ints.shape == (6, 2) and floats.shape == (6, 8)
    path = tmp_path / "satake.csv"
    path.write_text(text)
    expected = _satake_oracle(str(path))

    def row_reader(text, path):
        raise AssertionError("the row reader ran on a plain Satake file")

    monkeypatch.setattr(hecke, "_satake_rows", row_reader)
    assert repr(_satake_outcome(str(path))) == repr(expected)


# numpy from 1.23 until that deprecation expired read a q of '3.0' as 3, with
# only a DeprecationWarning that the default filters hide in library code;
# under a stand-in for such a loadtxt the file must still go to the row reader
def test_satake_q_read_via_a_float_goes_to_the_row_reader(tmp_path, monkeypatch):
    loadtxt = np.loadtxt

    def truncating_loadtxt(source, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(io.StringIO(source.getvalue().replace("3.0,", "3,")), **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    text = "p,q,a_re,a_im,b_re,b_im\n2,2,1.0,0.0,1.0,0.0\n3,3.0,1.0,0.0,1.0,0.0\n"
    path = tmp_path / "satake.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert hecke.numeric_columns(text, 2, ("p", "#")) is None
        outcome = _satake_outcome(str(path))
    assert isinstance(outcome[1], str) and repr(outcome) == repr(_satake_oracle(str(path)))


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


def test_empty_or_directory_group_argument(capsys, tmp_path, monkeypatch):
    # Path("") is ".", an existing directory, which was read as a group file
    code, _, err = run(capsys, "charlab", "table", "")
    assert code == 1 and err.startswith("usage-error: empty group argument"), err
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "charlab", "table", ".")
    assert code == 1 and err.startswith("io-error: no such group file '.'"), err
    # a bare name is no catalog entry when it names a directory
    (tmp_path / "adir").mkdir()
    code, out, err = run(capsys, "charlab", "table", "adir")
    assert (code, out, err) == (1, "", "io-error: cannot read adir: Is a directory\n")


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
