"""Digest gate: file-backed reports keep their exact bytes across refactors.

Each digest is the sha256 of the canonical JSON of a report built from
eigenvalue files (exact tau, a perturbed copy, a Satake-row CSV), pinned
from the per-prime implementation the array paths replaced.  A change in
any float's last bit changes the digest.
"""

import hashlib
import math
import random

import pytest

from smolab.cli import main
from smolab.experiments import (compare_local, tempered_bound_check,
                                tower_degree_check, z_ratio)
from smolab.fields import FieldSpec
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
    assert _digest(canonical_json(report.payload())) == (
        "e7f17bb2fd07e5f2cb45b3da1d04ba3383da441731290a84bf934f4a4255f3e0")


def test_z_ratio_digest(tau_rep):
    report = z_ratio(tau_rep, tau_rep, MOD8, [1.25, 1.5])
    assert _digest(canonical_json(report.payload())) == (
        "2dd161a276419d57cae7b6d07fe4b671a656218f600a4c89d9d8e548297b0b3c")


def test_tempered_bound_digest(tau_rep):
    report = tempered_bound_check(tau_rep, MOD8)
    assert _digest(canonical_json(report.payload())) == (
        "1d96a33e313ed684064b6ffb99ec1f5ff963aed1984a22166842dc21d4ffbc7a")


def test_tower_degree_digest():
    report = tower_degree_check(FieldSpec(5, (4,), label="inner"),
                                FieldSpec(5, label="outer"), 10**4)
    assert _digest(canonical_json(report.payload())) == (
        "60e945ec1171d230ed593e11f18456f6a19fbb3d1349321225017252387b0919")


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
