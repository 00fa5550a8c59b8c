"""Unified command-line front end.

Exit codes: 0 on success, 1 on a domain error (printed as ``code: message``
on stderr), 2 on usage errors (argparse).  Worker parallelism is controlled
by --workers or SMOLAB_WORKERS and never changes numeric output.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import characters, density, euler, experiments, groups
from .errors import IoError, NonPrimeRow, ParseError, SmolabError, UsageError
from .fields import parse_fieldspec
from .hecke import load_hecke, synthetic_tempered, synthetic_with_profile
from .report import Report, emit, write
from .selectors import DegreeSelector, ExplicitList, parse_selector
from .sieve import is_prime_array
from .tau import write_tau_csv


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    out = []
    for token in text.split(","):
        token = token.strip().replace("i", "j")
        if not token:
            continue
        try:
            out.append(complex(token))
        except ValueError:
            raise UsageError(f"cannot parse complex number {token!r}")
    return tuple(out)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise UsageError(f"cannot parse number list {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(float(t)) for t in text.split(",") if t.strip())
    except (ValueError, OverflowError):
        raise UsageError(f"cannot parse integer list {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse fraction {text!r}")


def _load_group(path: str) -> groups.FiniteGroup:
    """An existing path is a group file; anything else a catalog expression.

    No catalog expression contains "/" or ".", so an argument with either
    that names no file is a missing group file.
    """
    file = Path(path)
    if file.exists():
        return groups.build_group(groups.parse_group_file(file.read_text()), label=file.stem)
    if "/" in path or "." in path:
        raise IoError(f"no such group file {path!r}")
    return groups.catalog(path)


def _parse_seed(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad seed {text!r} in data spec {spec!r}")


def _load_rep(spec: str, weight: int, seed: int):
    """``path.csv`` loads an eigenvalue file; ``synthetic:<seed>`` and
    ``profile:<name>:<seed>`` draw synthetic sources."""
    if spec.startswith("synthetic:"):
        return synthetic_tempered(_parse_seed(spec.split(":", 1)[1], spec))
    if spec == "synthetic":
        return synthetic_tempered(seed)
    if spec.startswith("profile:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"expected profile:<name>:<seed>, got {spec!r}")
        return synthetic_with_profile(_parse_seed(parts[2], spec),
                                      euler.grc_profile(parts[1], 2))
    return load_hecke(spec, weight=weight)


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
    if len(parts) % 2:
        raise ParseError(f"bad Satake row {row!r} in {path}: odd parameter column count")
    if q < 2:
        raise UsageError(f"norm must be >= 2, got {q}")
    return p, q, parts


def _load_satake_csv(path: str) -> euler.EulerProduct:
    """Rows (p, q, alpha_re_1, alpha_im_1, ...): one place of norm q = p**f per row.

    A prime may have several rows, one per place.  Places without parameters
    (factor 1) or of norm above LOG_INDEX_LIMIT, which no allowed expansion
    reaches, are left out.  The columns are parsed and checked as arrays;
    only a file with a faulty row is walked row by row, by
    ``_first_satake_fault``, to raise the first one.
    """
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle)
                if row and row[0].strip().lower() not in ("p", "#")]
    columns = _satake_columns(rows)
    if columns is None:
        raise _first_satake_fault(rows, path)
    if not rows:
        raise ParseError(f"no Satake rows in {path}")
    ps, qs, exponents, widths, alphas = columns
    keep = np.flatnonzero((widths > 0) & (qs <= euler.LOG_INDEX_LIMIT))
    k = int(widths[keep].max(initial=0))
    # each row's parameters, zero-padded to k
    padded = np.zeros((len(rows), k), dtype=np.complex128)
    starts = np.cumsum(widths) - widths
    at_row = np.repeat(np.arange(len(rows)), widths)
    slot_of = np.arange(len(alphas)) - starts[at_row]
    fits = slot_of < k
    padded[at_row[fits], slot_of[fits]] = alphas[fits]
    # one (prime, place) cell per row: rows grouped by p, places kept in file order
    ps = ps[keep].astype(np.int64)  # a kept row has p <= q <= LOG_INDEX_LIMIT
    order = np.argsort(ps, kind="stable")
    ps = ps[order]
    support, first, at, counts = np.unique(ps, return_index=True, return_inverse=True,
                                           return_counts=True)
    slot = np.arange(len(ps)) - first[at]
    exps = np.zeros((len(support), counts.max(initial=0)), dtype=np.int64)
    params = np.zeros(exps.shape + (k,), dtype=np.complex128)
    exps[at, slot] = exponents[keep][order]
    params[at, slot] = padded[keep][order]

    def places(query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.searchsorted(support, query)
        return exps[rows], params[rows]

    return euler.EulerProduct(places=places, universe=ExplicitList(tuple(support.tolist())))


def _int_column(values: list[int]) -> np.ndarray:
    """int64 when every entry fits, else Python ints in an object array."""
    column = np.array(values, dtype=np.int64 if not values else None)
    return column if column.dtype == np.int64 else np.array(values, dtype=object)


def _satake_columns(rows: list[list[str]]):
    """(primes p, norms q, exponents f, parameters per row, complex
    parameters in row order) of Satake rows, or None when any row fails a
    check."""
    try:
        ps = _int_column([int(row[0]) for row in rows])
        qs = _int_column([int(row[1]) for row in rows])
        parts = np.array([float(v) for row in rows for v in row[2:]], dtype=np.float64)
    except (IndexError, ValueError):
        return None
    if ps.dtype != qs.dtype:
        ps, qs = ps.astype(object), qs.astype(object)
    widths = np.array([len(row) - 2 for row in rows], dtype=np.int64)
    if (widths % 2).any() or (qs < 2).any() or not is_prime_array(ps.tolist()).all():
        return None
    exponents = np.zeros(len(rows), dtype=np.int64)  # q = p**f, by division while it goes
    rest, todo = qs.copy(), np.arange(len(rows))
    while len(todo):
        todo = todo[rest[todo] % ps[todo] == 0]
        rest[todo] //= ps[todo]
        exponents[todo] += 1
    alphas = np.empty(len(parts) // 2, dtype=np.complex128)
    alphas.real, alphas.imag = parts[0::2], parts[1::2]
    if (rest != 1).any() or (alphas == 0).any():
        return None
    return ps, qs, exponents, widths // 2, alphas


def _first_satake_fault(rows: list[list[str]], path: str) -> SmolabError:
    """The error of the first faulty Satake row, in row order.

    The rows are read up to the first fault other than a non-prime p, then
    checked prime in one pass; within a row, the prime check comes after the
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
    prime = is_prime_array(row_primes)
    if not prime.all():
        return NonPrimeRow(f"row prime {row_primes[int(np.argmin(prime))]} in {path} is not prime")
    return fault


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smolab")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads (default SMOLAB_WORKERS or 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    charlab = sub.add_parser("charlab", help="finite-group character operations")
    char_sub = charlab.add_subparsers(dest="subcommand", required=True)
    ct = char_sub.add_parser("table")
    ct.add_argument("group", help="group file (permutations) or catalog expression")
    ce = char_sub.add_parser("extremal")
    ce.add_argument("group")
    ce.add_argument("--degree", type=int, required=True)

    dens = sub.add_parser("density", help="prime density estimators")
    dens_sub = dens.add_subparsers(dest="subcommand", required=True)
    dn = dens_sub.add_parser("natural")
    dn.add_argument("--selector", required=True)
    dn.add_argument("--x", required=True, help="comma list of ascending cutoffs")
    dd = dens_sub.add_parser("dirichlet")
    dd.add_argument("--selector", required=True)
    dd.add_argument("--s", required=True, help="comma list descending toward 1")
    dd.add_argument("--cutoff", type=int, default=10**7)

    fr = sub.add_parser("frobstats", help="class statistics of a congruence field")
    fr.add_argument("fieldspec", help="file with N=... and H=...")
    fr.add_argument("--x", type=int, default=10**6)

    eul = sub.add_parser("euler", help="local factor and product diagnostics")
    eul_sub = eul.add_subparsers(dest="subcommand", required=True)
    ev = eul_sub.add_parser("eval")
    ev.add_argument("--q", type=int, required=True)
    ev.add_argument("--alphas", required=True)
    ev.add_argument("--s", required=True)
    pl = eul_sub.add_parser("poleline")
    pl.add_argument("--q", type=int, required=True)
    pl.add_argument("--alphas", required=True)
    rs = eul_sub.add_parser("rs")
    rs.add_argument("--q", type=int, required=True)
    rs.add_argument("--alphas", required=True)
    rs.add_argument("--betas", required=True)
    rs.add_argument("--no-conjugate", action="store_true")
    pos = eul_sub.add_parser("positivity")
    pos.add_argument("--data", required=True, help="(p,q,alpha parts) CSV")
    pos.add_argument("--max-index", type=int, default=10**5)
    pr = eul_sub.add_parser("probe")
    pr.add_argument("--fieldspec", required=True)
    pr.add_argument("--degree", type=int, required=True, help="residue degree j")
    pr.add_argument("--delta", required=True)
    pr.add_argument("--sigma", required=True)
    pr.add_argument("--cutoffs", default="1e5,1e6,1e7")

    smo = sub.add_parser("smo", help="comparison experiments")
    smo_sub = smo.add_subparsers(dest="subcommand", required=True)
    cp = smo_sub.add_parser("compare")
    cp.add_argument("--data", required=True)
    cp.add_argument("--data2", required=True)
    cp.add_argument("--weight", type=int, default=12)
    cp.add_argument("--x", type=int, default=10**4)
    po = smo_sub.add_parser("poleorder")
    po.add_argument("--selector", required=True)
    po.add_argument("--eps", default=None, help="comma list of epsilon values")
    zr = smo_sub.add_parser("zratio")
    zr.add_argument("--data", required=True)
    zr.add_argument("--data2", required=True)
    zr.add_argument("--weight", type=int, default=12)
    zr.add_argument("--selector", default="all")
    zr.add_argument("--s", default="1.25,1.5")
    rj = smo_sub.add_parser("rajan")
    rj.add_argument("--fieldspec", required=True)
    rj.add_argument("--degree", type=int, required=True, help="residue degree j")
    rj.add_argument("--n", type=int, default=2)
    ie = smo_sub.add_parser("inert")
    ie.add_argument("--fieldspec", required=True)
    ie.add_argument("--n", type=int, default=2)
    ie.add_argument("--profile", default="LRS")
    ie.add_argument("--delta", default=None, help="extra half-plane check value")
    tw = smo_sub.add_parser("tower")
    tw.add_argument("--subfield", required=True)
    tw.add_argument("--field", required=True)
    tw.add_argument("--x", type=int, default=10**5)
    tb = smo_sub.add_parser("tempered")
    tb.add_argument("--data", required=True)
    tb.add_argument("--weight", type=int, default=12)
    tb.add_argument("--selector", required=True)

    data = sub.add_parser("data", help="bundled data generation")
    data_sub = data.add_subparsers(dest="subcommand", required=True)
    gt = data_sub.add_parser("gen-tau")
    gt.add_argument("--limit", type=int, required=True)
    gt.add_argument("--out", default="tau.csv")

    return parser


def _character_table_report(args) -> Report:
    G = _load_group(args.group)
    table = characters.character_table(G)
    part = table.partition
    return Report(
        experiment="charlab.table",
        inputs={"group": args.group, "order": G.order},
        payload={
            "label": G.label,
            "order": G.order,
            "class_sizes": part.class_sizes,
            "class_representatives": part.representatives,
            "rows": [{"degree": row.degree, "values": values}
                     for row, values in zip(table.rows, table.values)],
        },
        interpretation=(
            "each irreducible character is listed once per conjugacy class",
            "sum of squared degrees equals the group order",
        ),
    )


def _character_table_csv(args) -> str:
    # class sizes header row, then one character per row
    G = _load_group(args.group)
    table = characters.character_table(G)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class_size"] + [str(s) for s in table.partition.class_sizes])
    for row in table.rows:
        rendered = []
        for v in row.values:
            if abs(v.imag) < 1e-12:
                rendered.append(repr(v.real))
            else:
                rendered.append(f"{v.real!r}{v.imag:+}j")
        writer.writerow([str(row.degree)] + rendered)
    return buf.getvalue()


def _extremal_report(args) -> Report:
    G = _load_group(args.group)
    result = characters.extremal_search(G, args.degree)
    if result is None:
        payload = {"witness": None, "degree": args.degree, "order": G.order,
                   "note": f"fewer than two degree-{args.degree} irreducibles"}
    else:
        payload = {
            "witness": list(result.pair),
            "degree": args.degree,
            "order": G.order,
            "fraction": result.fraction,
            "threshold": characters.distinguishing_threshold(args.degree),
        }
    return Report(
        experiment="charlab.extremal",
        inputs={"group": args.group, "degree": args.degree},
        payload=payload,
        interpretation=(
            "distinct same-degree irreducibles can agree on at most 1 - 1/(2 n^2) of the group",
        ),
    )


def _dispatch(args) -> Report | str:
    workers = args.workers
    if args.command == "charlab" and args.subcommand == "table":
        if args.format == "csv":
            return _character_table_csv(args)
        return _character_table_report(args)
    if args.command == "charlab" and args.subcommand == "extremal":
        return _extremal_report(args)

    if args.command == "density":
        selector = parse_selector(args.selector)
        if args.subcommand == "natural":
            est = density.natural_density_estimate(selector, _parse_int_list(args.x),
                                                   workers=workers)
        else:
            est = density.dirichlet_density_estimate(selector, _parse_float_list(args.s),
                                                     args.cutoff, workers=workers)
        return Report(
            experiment=f"density.{args.subcommand}",
            inputs={"selector": args.selector, "grid": est.sample_points,
                    "cutoff": est.diagnostics.get("cutoff")},
            payload=est,
            interpretation=(
                "density of a prime set: counting ratio up to x, or norm-weighted "
                "power sums against log(1/(s-1)) as s decreases to 1",
            ),
        )

    if args.command == "frobstats":
        fs = parse_fieldspec(Path(args.fieldspec).read_text(), label=args.fieldspec)
        stats = density.frobenius_statistics(fs, args.x, workers=workers)
        return Report(
            experiment="frobstats",
            inputs={"fieldspec": args.fieldspec, "x": args.x},
            payload=stats,
            interpretation=(
                "unramified primes equidistribute over the classes of (Z/N)*/H",
            ),
        )

    if args.command == "euler":
        return _dispatch_euler(args)
    if args.command == "smo":
        return _dispatch_smo(args, workers)
    if args.command == "data" and args.subcommand == "gen-tau":
        path = write_tau_csv(args.limit, args.out)
        return Report(
            experiment="data.gen-tau",
            inputs={"limit": args.limit},
            payload={"path": str(path), "rows": len(path.read_text().splitlines()) - 1},
            interpretation=("exact integer eigenvalue file for the weight-12 cusp form",),
        )
    raise UsageError(f"unhandled command {args.command}")


def _dispatch_euler(args) -> Report:
    if args.subcommand == "eval":
        alphas = _parse_complex_list(args.alphas)
        s_vals = _parse_complex_list(args.s)
        factor = euler.LocalFactor(q=args.q, alphas=alphas, degree=max(1, len(alphas)))
        values = [euler.eval_local(factor, s) for s in s_vals]
        return Report(
            experiment="euler.eval",
            inputs={"q": args.q, "alphas": args.alphas, "s": args.s},
            payload={"values": values},
            interpretation=("local factor value prod (1 - a q^-s)^-1",),
        )
    if args.subcommand == "poleline":
        alphas = _parse_complex_list(args.alphas)
        factor = euler.LocalFactor(q=args.q, alphas=alphas, degree=max(1, len(alphas)))
        return Report(
            experiment="euler.poleline",
            inputs={"q": args.q, "alphas": args.alphas},
            payload={"poleline": euler.first_pole_line(factor)},
            interpretation=(
                "the rightmost pole of a local factor sits on Re(s) = max log|a| / log q",
            ),
        )
    if args.subcommand == "rs":
        alphas = _parse_complex_list(args.alphas)
        betas = _parse_complex_list(args.betas)
        f = euler.LocalFactor(q=args.q, alphas=alphas, degree=max(1, len(alphas)))
        g = euler.LocalFactor(q=args.q, alphas=betas, degree=max(1, len(betas)))
        paired = euler.rankin_selberg_local(f, g, conjugate_second=not args.no_conjugate)
        return Report(
            experiment="euler.rs",
            inputs={"q": args.q, "alphas": args.alphas, "betas": args.betas,
                    "conjugated": not args.no_conjugate},
            payload={"alphas": paired.alphas, "degree": paired.degree,
                     "poleline": euler.first_pole_line(paired)},
            interpretation=("pairing multiplies parameters pairwise",),
        )
    if args.subcommand == "positivity":
        product = _load_satake_csv(args.data)
        ok, first_bad = euler.positive_type_check(product, product.universe, args.max_index)
        return Report(
            experiment="euler.positivity",
            inputs={"data": args.data, "max_index": args.max_index},
            payload={"positive_type": ok, "first_violation": first_bad},
            interpretation=(
                "a product is of positive type when its log series has "
                "nonnegative coefficients; no zeros then occur right of the first pole",
            ),
        )
    if args.subcommand == "probe":
        fs = parse_fieldspec(Path(args.fieldspec).read_text(), label=args.fieldspec)
        selector = DegreeSelector(fs, args.degree)
        probe = euler.convergence_probe(selector, float(_parse_fraction(args.delta)),
                                        _parse_float_list(args.sigma),
                                        _parse_int_list(args.cutoffs))
        return Report(
            experiment="euler.probe",
            inputs={"fieldspec": args.fieldspec, "degree": args.degree,
                    "delta": args.delta, "sigma": args.sigma, "cutoffs": args.cutoffs},
            payload=probe,
            interpretation=(
                "products over degree-j primes with |a| <= q^delta converge "
                "absolutely right of delta + 1/j",
            ),
        )
    raise UsageError(f"unknown euler subcommand {args.subcommand}")


def _dispatch_smo(args, workers) -> Report:
    if args.subcommand == "compare":
        A = _load_rep(args.data, args.weight, args.seed)
        B = _load_rep(args.data2, args.weight, args.seed + 1)
        rep = experiments.compare_local(A, B, args.x)
        return Report(
            experiment="smo.compare",
            inputs={"data": args.data, "data2": args.data2, "x": args.x},
            payload=rep,
            interpretation=(
                "sources agreeing at almost all primes are expected to agree everywhere; "
                "the report records where the scanned coefficients differ",
            ),
        )
    if args.subcommand == "poleorder":
        selector = parse_selector(args.selector)
        eps = tuple(_parse_fraction(t) for t in args.eps.split(",")) if args.eps else None
        est = experiments.pole_order_estimate(None, selector, eps_grid=eps, workers=workers)
        return Report(
            experiment="smo.poleorder",
            inputs={"selector": args.selector, "eps": args.eps},
            payload=est,
            interpretation=(
                "slope of truncated log sums against log(1/eps) approximates "
                "the pole order weighted by the density of the prime set",
            ),
        )
    if args.subcommand == "zratio":
        A = _load_rep(args.data, args.weight, args.seed)
        B = _load_rep(args.data2, args.weight, args.seed + 1)
        rep = experiments.z_ratio(A, B, parse_selector(args.selector),
                                  _parse_float_list(args.s))
        return Report(
            experiment="smo.zratio",
            inputs={"data": args.data, "data2": args.data2,
                    "selector": args.selector, "s": args.s},
            payload=rep,
            interpretation=(
                "the four-way ratio is 1 off the selected set and detects "
                "coincidence of the two sources through its growth",
            ),
        )
    if args.subcommand == "rajan":
        fs = parse_fieldspec(Path(args.fieldspec).read_text(), label=args.fieldspec)
        rep = experiments.rajan_criterion(DegreeSelector(fs, args.degree), args.n)
        return Report(
            experiment="smo.rajan",
            inputs={"fieldspec": args.fieldspec, "degree": args.degree, "n": args.n},
            payload=rep,
            interpretation=(
                "summability of q^(-2/(n^2+1)) over the set decides the sparse-set "
                "comparison route; degree-j norms give the exact exponent test 2j/(n^2+1) > 1",
            ),
        )
    if args.subcommand == "inert":
        fs = parse_fieldspec(Path(args.fieldspec).read_text(), label=args.fieldspec)
        profile = euler.grc_profile(args.profile, args.n)
        delta = _parse_fraction(args.delta) if args.delta else None
        rep = experiments.inert_experiment(fs, args.n, profile, variant_delta=delta)
        return Report(
            experiment="smo.inert",
            inputs={"fieldspec": args.fieldspec, "n": args.n,
                    "profile": args.profile, "delta": args.delta},
            payload=rep,
            interpretation=(
                "self-pairing products over inert primes of a degree-p cyclic field "
                "have no poles right of 2*delta + 1/p",
            ),
        )
    if args.subcommand == "tower":
        F = parse_fieldspec(Path(args.subfield).read_text(), label=args.subfield)
        K = parse_fieldspec(Path(args.field).read_text(), label=args.field)
        rep = experiments.tower_degree_check(F, K, args.x)
        return Report(
            experiment="smo.tower",
            inputs={"subfield": args.subfield, "field": args.field, "x": args.x},
            payload=rep,
            interpretation=(
                "in a nested cyclic prime-power chain, degree-p primes of the "
                "subfield acquire degree p^m upstairs",
            ),
        )
    if args.subcommand == "tempered":
        A = _load_rep(args.data, args.weight, args.seed)
        rep = experiments.tempered_bound_check(A, parse_selector(args.selector),
                                               workers=workers)
        return Report(
            experiment="smo.tempered",
            inputs={"data": args.data, "selector": args.selector},
            payload=rep,
            interpretation=(
                "restricted self-pairing log growth is at most n^2 times the "
                "density of the restriction set for unit-size parameters",
            ),
        )
    raise UsageError(f"unknown smo subcommand {args.subcommand}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _dispatch(args)
        if isinstance(result, str):  # pre-rendered CSV
            write(result, args.output)
        else:
            emit(result, format=args.format, path=args.output)
        return 0
    except SmolabError as exc:
        sys.stderr.write(f"{exc.code}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io-error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
