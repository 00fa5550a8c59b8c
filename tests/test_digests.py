"""Digest gate: reports keep their exact bytes across refactors.

Each digest is the sha256 of the canonical JSON of a report built from
eigenvalue files (exact tau, a perturbed copy, a Satake-row CSV), pinned
from the per-prime implementation the array paths replaced, of the
stdout of one small CLI command per subcommand, or of the character
tables of the bundled catalog and four larger groups.  A change in any float's
last bit changes the digest.
"""

import hashlib
import json
import math
import random
import shlex

import numpy as np
import pytest

from smolab.characters import character_table
from smolab.cli import main
from smolab.experiments import (compare_local, tempered_bound_check,
                                tower_degree_check, z_ratio)
from smolab.fields import FieldSpec
from smolab.groups import BUNDLED_CATALOG, catalog
from smolab.hecke import parse_hecke_text
from smolab.report import canonical_json
from smolab.selectors import CongruenceSelector
from smolab.sieve import simple_sieve
from smolab.tau import generate_tau, tau_csv_text

MOD8 = CongruenceSelector(8, frozenset({1}))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def tau_rep():
    return parse_hecke_text(tau_csv_text(10**4), weight=12, label="tau")


@pytest.fixture(scope="module")
def perturbed_rep():
    rows = ["p,a_p"]
    for p, v in sorted(generate_tau(500).items()):
        rows.append(f"{p},{v + (round(101**5.5 * 1e-3) if p == 101 else 0)}")
    return parse_hecke_text("\n".join(rows), weight=12, label="tau-perturbed")


def test_compare_local_digest(tau_rep, perturbed_rep):
    report = compare_local(tau_rep, perturbed_rep, 500)
    assert _digest(canonical_json(report)) == (
        "e7f17bb2fd07e5f2cb45b3da1d04ba3383da441731290a84bf934f4a4255f3e0")


def test_z_ratio_digest(tau_rep):
    report = z_ratio(tau_rep, tau_rep, MOD8, [1.25, 1.5])
    assert _digest(canonical_json(report)) == (
        "2dd161a276419d57cae7b6d07fe4b671a656218f600a4c89d9d8e548297b0b3c")


def test_tempered_bound_digest(tau_rep):
    report = tempered_bound_check(tau_rep, MOD8)
    assert _digest(canonical_json(report)) == (
        "1d96a33e313ed684064b6ffb99ec1f5ff963aed1984a22166842dc21d4ffbc7a")


def test_tower_degree_digest():
    report = tower_degree_check(FieldSpec(5, (4,), label="inner"),
                                FieldSpec(5, label="outer"), 10**4)
    assert _digest(canonical_json(report)) == (
        "60e945ec1171d230ed593e11f18456f6a19fbb3d1349321225017252387b0919")


TABLE_GROUPS = BUNDLED_CATALOG + ("cyclic(120)", "symmetric(6)", "dihedral(60)",
                                  "q8_power_family(3)")


def _integer_row(values):
    """The row's values as ints when each is within 1e-9 of one, else None."""
    ints = np.round(values.real)
    if np.all(np.abs(values.imag) <= 1e-9) and np.all(np.abs(values.real - ints) <= 1e-9):
        return tuple(ints.astype(np.int64).tolist())
    return None


def test_character_tables_digest():
    tables = [(expr, [(row.degree, tuple(row.values.tolist()), _integer_row(row.values))
                      for row in character_table(catalog(expr)).rows])
              for expr in TABLE_GROUPS]
    assert _digest(canonical_json(tables)) == (
        "51e38deb83c7e2425ff40445929c8f7440a450d2085b87a09a3f6c3ed5446649")


def _self_pairing_csv(limit: int) -> str:
    """Satake rows {1, e^{2i theta}, e^{-2i theta}, 1} with seeded angles."""
    rng = random.Random("digest-satake")
    lines = ["p,q,a1_re,a1_im,a2_re,a2_im,a3_re,a3_im,a4_re,a4_im"]
    for p in simple_sieve(limit).tolist():
        theta = rng.uniform(0.0, math.pi)
        c, s = math.cos(2 * theta), math.sin(2 * theta)
        values = (1.0, 0.0, c, s, c, -s, 1.0, 0.0)
        lines.append(",".join([str(p), str(p)] + [repr(v) for v in values]))
    return "\n".join(lines) + "\n"


def test_cli_positivity_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "satake.csv").write_text(_self_pairing_csv(2000))
    code = main(["euler", "positivity", "--data", "satake.csv", "--max-index", "100000"])
    out = capsys.readouterr().out
    assert code == 0
    assert _digest(out) == (
        "eb5334123455962d2b104106cf12a11d5058bfa1290b744c31110b9048500d30")


CLI_INPUTS = {
    "n4.txt": "N=4\nH=\n",
    "n8.txt": "N=8\nH=\n",
    "n11.txt": "N=11\n",
    "c7.txt": "N=7\nH=6\n",
    "inner.txt": "N=5\nH=4\n",
    "outer.txt": "N=5\nH=\n",
    "satake.csv": ("p,q,a1_re,a1_im,a2_re,a2_im\n2,2,1.0,0.0,0.5,0.5\n"
                   "3,3,-1.0,0.0,0.0,1.0\n5,5,1.0,0.0,1.0,0.0\n7,7,0.0,1.0,0.0,-1.0\n"),
}

# one small command per subcommand, then the two reports whose exact
# fractions are integers ("1", not "1/1"), then CSV views: a grid report, a
# second grid report and a flat report with nested values
CLI_DIGESTS = [
    ("charlab table cyclic(4)",
     "a5824ff9b5be67200791727e52681f721fae11dac89830a73afe2c8ad0cb2807"),
    ("charlab extremal q8_power_family(1) --degree 2",
     "3c7a2f7acd99ae71652240452d5012e0607ac8a30c654605c069889b7f4ae4db"),
    ("density natural --selector mod:4:1 --x 10000,100000",
     "0d0c5f0099fa0588dc26be0a052bc3ca7b06969da3bb0bc5916cb729a6f9a929"),
    # re-pinned when the Dirichlet sums moved onto sieve.class_sums: the
    # reference became the sum of two class sums and the floored sums the
    # full sums less the primes up to the floor, 1.6e-15 relative at most
    ("density dirichlet --selector mod:8:1 --s 1.5,1.25 --cutoff 100000",
     "c520ba66c8afc0af6021564a6a3f7deb9fd44d161d8b99d0d68b542f93d23c1e"),
    ("frobstats n8.txt --x 100000",
     "b21d15038d8d2d77eae8ee03b3bb3e41bf38834996ad0f1e5b4001f597b561a5"),
    ("euler eval --q 4 --alphas 2,0.5i --s 1,2+1i",
     "c9578e45ed92dd74f047ed415a7ab04d6a05f5ab14d4e6b797e741844f218f55"),
    ("euler poleline --q 4 --alphas 2,0.5",
     "96bfa729b1ce406c1be88daaf7feaf8826f8d361ef0d7a52bbd5df04208ba8d9"),
    ("euler rs --q 4 --alphas 2,1i --betas 0.5,-1",
     "6efcc9d9bb1cd8df9a689969c375d772734d5b3ee802dadd5c0fb094c3c2e9fe"),
    ("euler positivity --data satake.csv --max-index 1000",
     "35cef9eecf3b4aba9721efe124551c0945a14b26622f5f0851d157dd85c6c749"),
    ("euler probe --fieldspec n4.txt --degree 2 --delta 1/4 --sigma 0.8,0.7 --cutoffs 1e4,1e5",
     "c3397cf7366a11f05dd4da64da95155282e374c67ef618f98703b2401bbac7a5"),
    ("smo compare --data tau.csv --data2 synthetic:3 --x 2000",
     "60d5314878e235373e29a9036154ae423b089cdca22e8dd61ba62fbd090232b4"),
    ("smo poleorder --selector mod:4:1 --eps 1/4,1/5,1/6",
     "54359ba5f5425854ea4f6c701379eff90ca481dbdf4ed55656c91f82b20e3c82"),
    ("smo zratio --data tau.csv --data2 synthetic:2 --selector mod:8:1 --s 1.25,1.5",
     "b3b273ec4acf745fc167013b21277f0a6903f87063b66271c347fef5e0cc7759"),
    ("smo rajan --fieldspec c7.txt --degree 3 --n 2",
     "74e45c8b9b51ce0b937d5889f0c8263896961a483a149cb43d311227508c49e8"),
    ("smo inert --fieldspec c7.txt --n 2 --profile LRS --delta 1/8",
     "88159dd6b92536f1437e042e6e33d3a17ef5de8269598f0a5bb9cfc66a990d29"),
    ("smo tower --subfield inner.txt --field outer.txt --x 10000",
     "7e885c2cdeeec219971cf1043cdc862d5ecdfddd1ce52b8120ed7400e23604ea"),
    ("smo tempered --data tau.csv --selector mod:8:1",
     "edc8c503142901b35474b0dd1e1d65feddd93b629279a92a8fa6d0d826bb5e54"),
    ("data gen-tau --limit 200 --out tau200.csv",
     "0d63d8b923b1b44e991949e6d347be9af30d1191c6fdcb25a9f1fa5b21ef5170"),
    ("smo tempered --data tau.csv --selector all",
     "e94ed19672409f6fd63bbf9987c087981d73009faa5be838a4d509d51e2cff7f"),
    ("smo rajan --fieldspec c7.txt --degree 1 --n 1",
     "fc6f0a02ba1fa8ccfaba559d0105d569da40d9cf9e5a8721acfc1a2856c838a0"),
    ("--format csv density natural --selector mod:4:1 --x 10000,100000",
     "9bfeaa5fe39cde4d7ba5d2d310372ef61ca485de92b86c227255f491e85d7fe4"),
    ("--format csv smo rajan --fieldspec c7.txt --degree 3 --n 2",
     "171dbb4172112ffedaf9dc094bee0b20cb0dc7e3f13d7cd541987d1a3e32e966"),
    ("--format csv smo inert --fieldspec c7.txt --n 2 --profile LRS --delta 1/8",
     "3ec043436576e7025bca1503b101306d726cee9e7611419f181bb62a3f1ddd38"),
    # the prime-scan commands at 1e8, which run Lucy's recurrence where every
    # entry above runs on the sieve; the compound selector takes each pair mod 8
    ('density natural --selector "(mod:8:1 or mod:8:3) and not degree:c7.txt:1" --x 1e7,1e8',
     "463e5742953fd95fb4be106c3dc08a5dbb7958f8d1494f1b0cb3e2340e76f516"),
    ('density natural --selector "(mod:8:1 or mod:8:5) and not degree:c7.txt:1" --x 1e7,1e8',
     "47cc13ef1568f1f58bdd7fd0a1c1617602db02326795514e4dd80dd26eb130c9"),
    ('density natural --selector "(mod:8:1 or mod:8:7) and not degree:c7.txt:1" --x 1e7,1e8',
     "a818b713e330aef022884353d1f1e985e240f5d7e84291be6e12bb157cdea777"),
    ('density natural --selector "(mod:8:3 or mod:8:5) and not degree:c7.txt:1" --x 1e7,1e8',
     "49709781dbca374a72870742cf38ff611b27ccc9c703d0d23222df9394f975c5"),
    ('density natural --selector "(mod:8:3 or mod:8:7) and not degree:c7.txt:1" --x 1e7,1e8',
     "221c905dc00ddecda5296a156f66c29c99119b6126cf202607fa0d1f34be6f54"),
    ('density natural --selector "(mod:8:5 or mod:8:7) and not degree:c7.txt:1" --x 1e7,1e8',
     "65f5d7a79dc0b601264cc3d2edf8815d4d6023e576d4400c4d576456afdfbf6b"),
    ("frobstats n11.txt --x 100000000",
     "b08063a2693e31286ce904119784d9780d1257db8ab4bb65ee30f6d5461b8218"),
    ("density dirichlet --selector mod:8:5 --s 1.5,1.25,1.1 --cutoff 100000000",
     "cad98f51ae127048b80eb2e436e778f82697295a51d976423f1b9b24d30a9f2a"),
    ("smo poleorder --selector mod:4:3 --eps 1/16,1/12,1/8",
     "49cb3b0e8e5cacbc8838176f23ccccdd16b545415613ca7011a0dd4edc6c2f45"),
]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "tau.csv").write_text(tau_csv_text(2000))
    for name, text in CLI_INPUTS.items():
        (root / name).write_text(text)
    return root


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


@pytest.mark.parametrize("command,expected", CLI_DIGESTS, ids=[c for c, _ in CLI_DIGESTS])
def test_cli_report_digest(command, expected, cli_dir, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.chdir(cli_dir)
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    if not command.startswith("--format csv"):
        json.loads(out, parse_constant=_reject_constant)
    assert _digest(out) == expected


def test_numpy_non_finite_floats_are_strings():
    text = canonical_json([np.float64("nan"), np.float64("inf"), np.float64("-inf"),
                           complex(float("nan"), float("inf"))])
    doc = json.loads(text, parse_constant=_reject_constant)
    assert doc == ["nan", "inf", "-inf", {"re": "nan", "im": "inf"}]
