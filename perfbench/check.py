"""Correctness checks for the reports the workloads produce.

``compare`` matches a report against its golden copy: integers, strings,
booleans and fraction strings exactly, floats within a relative 1e-9, so a
legitimate change of segment span or summation order still passes.  The
oracle functions check properties that hold independently of the golden
copy.  Every check returns a list of error strings; an empty list passes.
Oracles take ``(report, directory, files)``: the parsed report, the
directory the command ran in, and the golden file digests.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

FLOAT_REL_TOL = 1e-9
MAX_ERRORS = 5

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_golden(workload: str) -> dict:
    """{"reports": {command key: report}, "files": {name: sha256}}."""
    return json.loads(gzip.decompress(golden_path(workload).read_bytes()))


def compare(expected, actual, path: str = "$") -> list[str]:
    errors: list[str] = []
    _compare(expected, actual, path, errors)
    return errors


def _compare(expected, actual, path: str, errors: list[str]) -> None:
    if len(errors) >= MAX_ERRORS:
        return
    if isinstance(expected, float) and type(actual) is float:
        if not math.isclose(expected, actual, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
            errors.append(f"{path}: {actual!r} != golden {expected!r}")
    elif type(expected) is not type(actual):
        errors.append(f"{path}: type {type(actual).__name__} != golden {type(expected).__name__}")
    elif isinstance(expected, dict):
        if expected.keys() != actual.keys():
            errors.append(f"{path}: keys {sorted(actual)} != golden {sorted(expected)}")
            return
        for key in expected:
            _compare(expected[key], actual[key], f"{path}.{key}", errors)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            errors.append(f"{path}: length {len(actual)} != golden {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{path}[{i}]", errors)
    elif expected != actual:
        errors.append(f"{path}: {actual!r} != golden {expected!r}")


def _expect(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


# -- oracles ----------------------------------------------------------------------


def natural_reference_counts(report, directory, files, *, expected) -> list[str]:
    got = report["results"]["diagnostics"]["reference_counts"]
    return [] if got == expected else [f"reference_counts {got} != pi(x) - ramified {expected}"]


def frobstats_total(report, directory, files, *, expected) -> list[str]:
    got = report["results"]["total_unramified"]
    return [] if got == expected else [f"total_unramified {got} != {expected}"]


def tau_file(report, directory, files) -> list[str]:
    """tau.csv: known values, the Deligne bound on every row, and its exact bytes."""
    errors: list[str] = []
    raw = (Path(directory) / "tau.csv").read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    _expect(errors, digest == files.get("tau.csv"), f"tau.csv sha256 {digest} differs from golden")
    lines = raw.decode().splitlines()
    _expect(errors, lines[:1] == ["p,a_p"], "tau.csv header is not 'p,a_p'")
    tau = {}
    for line in lines[1:]:
        p, a = (int(v) for v in line.split(","))
        tau[p] = a
        # |tau(p)| <= 2 p^(11/2)  <=>  tau(p)^2 <= 4 p^11, exactly
        _expect(errors, a * a <= 4 * p**11, f"tau({p}) = {a} breaks the Deligne bound")
    for p, value in ((2, -24), (3, 252), (5, 4830)):
        _expect(errors, tau.get(p) == value, f"tau({p}) = {tau.get(p)} != {value}")
    _expect(errors, report["results"]["rows"] == len(tau),
            f"report rows {report['results']['rows']} != file rows {len(tau)}")
    return errors[:MAX_ERRORS]


def compare_invariants(report, directory, files, *, compared) -> list[str]:
    """Synthetic-source comparison: every prime compared, nearly all disagree."""
    results = report["results"]
    errors: list[str] = []
    _expect(errors, results["compared"] == compared,
            f"compared {results['compared']} != {compared}")
    _expect(errors, results["disagreement_density"] > 0.99,
            f"disagreement density {results['disagreement_density']} <= 0.99")
    return errors


def zratio_invariants(report, directory, files, *, primes_used) -> list[str]:
    results = report["results"]
    errors: list[str] = []
    _expect(errors, results["max_discrepancy"] < 1e-6,
            f"max_discrepancy {results['max_discrepancy']} >= 1e-6")
    _expect(errors, results["positive_type_combined"] is True, "combined series not positive-type")
    _expect(errors, results["primes_used"] == primes_used,
            f"primes_used {results['primes_used']} != {primes_used}")
    return errors


def positive_type(report, directory, files) -> list[str]:
    ok = report["results"]["positive_type"] is True
    return [] if ok else [f"self-pairing not positive-type: {report['results']}"]


def character_table(report, directory, files) -> list[str]:
    """Row orthogonality (Gram matrix = |G| I) and sum of squared degrees = |G|."""
    import numpy as np

    results = report["results"]
    order = results["order"]
    sizes = np.array(results["class_sizes"], dtype=float)
    values = np.array([[complex(v["re"], v["im"]) for v in row["values"]]
                       for row in results["rows"]])
    errors: list[str] = []
    degrees = [row["degree"] for row in results["rows"]]
    _expect(errors, sum(d * d for d in degrees) == order,
            f"sum of squared degrees {sum(d * d for d in degrees)} != |G| = {order}")
    _expect(errors, values.shape == (len(sizes), len(sizes)),
            f"table shape {values.shape} is not square in {len(sizes)} classes")
    if not errors:
        gram = (values * sizes) @ values.conj().T
        worst = float(np.max(np.abs(gram - order * np.eye(len(sizes)))))
        _expect(errors, worst <= 1e-6 * order, f"Gram matrix off |G| I by {worst}")
    return errors


def extremal_fraction(report, directory, files, *, expected) -> list[str]:
    got = report["results"].get("fraction")
    return [] if got == expected else [f"extremal fraction {got} != {expected}"]


# -- one command's verdict -------------------------------------------------------------


def check_command(command, directory: Path, report_name: str, golden: dict) -> list[str]:
    """All checks of one command's report in ``directory``."""
    try:
        report = json.loads((Path(directory) / report_name).read_text())
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"]
    errors: list[str] = []
    if command.golden:
        expected = golden["reports"].get(command.key)
        if expected is None:
            errors.append("no golden report for this command")
        else:
            errors.extend(compare(expected, report))
    for oracle in command.oracles:
        try:
            errors.extend(oracle(report, directory, golden["files"]))
        except (KeyError, TypeError, ValueError) as exc:
            name = getattr(oracle, "func", oracle).__name__
            errors.append(f"oracle {name} failed: {exc!r}")
    return errors
